#include "textflag.h"

// func sum8Blocks(p []byte) uint64
//
// PSADBW of 16 bytes against zero leaves the sum of each 8-byte half, at
// most 8·255 = 2040, in the low bits of a 64-bit lane. Four accumulators
// (X1–X4) take one 16-byte load of each 64-byte block, so their PADDQs do
// not wait on one another; a 64-bit lane grows by at most 2040 per block,
// so it cannot overflow before 2⁶⁴/255 bytes. MOVOU loads: p needs no
// alignment. Only the len(p)>>6 whole blocks are read.
TEXT ·sum8Blocks(SB), NOSPLIT, $0-32
	MOVQ p_base+0(FP), SI
	MOVQ p_len+8(FP), CX
	SHRQ $6, CX
	PXOR X0, X0
	PXOR X1, X1
	PXOR X2, X2
	PXOR X3, X3
	PXOR X4, X4
	TESTQ CX, CX
	JZ   fold

loop:
	MOVOU 0(SI), X5
	MOVOU 16(SI), X6
	MOVOU 32(SI), X7
	MOVOU 48(SI), X8
	PSADBW X0, X5
	PSADBW X0, X6
	PSADBW X0, X7
	PSADBW X0, X8
	PADDQ X5, X1
	PADDQ X6, X2
	PADDQ X7, X3
	PADDQ X8, X4
	ADDQ $64, SI
	DECQ CX
	JNZ  loop

fold:
	PADDQ  X2, X1
	PADDQ  X4, X3
	PADDQ  X3, X1
	PSHUFD $0x4e, X1, X2 // swap the two 64-bit lanes
	PADDQ  X2, X1
	MOVQ   X1, AX
	MOVQ   AX, ret+24(FP)
	RET
