#include "textflag.h"

// PREFETCH_AHEAD is how far ahead of its loads the loop prefetches: 3 KiB,
// 48 blocks. Page-cache pages are physically scattered and the hardware
// prefetchers stop at each 4 KiB boundary, so without a hint the first
// lines of every page arrive cold. From 1 KiB into a page the hint reaches
// the next one, which is in flight before the loads cross into it. The
// distance is the best of a sweep over a mapped page-cache file
// (BenchmarkKernelOutOfCache/mapped, EXPERIMENTS.md): 1 KiB is too short a
// lead, 4 KiB no better than 3.
#define PREFETCH_AHEAD 3072

// func sum8Blocks(p []byte) uint64
//
// PSADBW of 16 bytes against zero leaves the sum of each 8-byte half, at
// most 8·255 = 2040, in the low bits of a 64-bit lane. Four accumulators
// (X1–X4) take one 16-byte load of each 64-byte block, so their PADDQs do
// not wait on one another; a 64-bit lane grows by at most 2040 per block,
// so it cannot overflow before 2⁶⁴/255 bytes. MOVOU loads: p needs no
// alignment. Only the len(p)>>6 whole blocks are loaded: nothing past them
// is read. The one PREFETCHT0 per block is a hint, not a load: it may name
// an address past p, unmapped or past the end of a file, and never faults.
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
	PREFETCHT0 PREFETCH_AHEAD(SI)
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
