package kernels

// sum8Blocks adds the bytes of p[:len(p)&^63] and loads nothing past them:
// PSADBW against zero over 64-byte blocks into four accumulators of two
// 64-bit lanes each, with a PREFETCHT0 a fixed 3 KiB ahead of each block's
// loads (sum_amd64.s). The prefetch is a hint that never faults, so it may
// reach past p. SSE2 and PREFETCHT0 are baseline amd64, so there is no
// CPU-feature dispatch.
//
//go:noescape
func sum8Blocks(p []byte) uint64

// sum8Piece bounds the bytes one sum8Blocks call sums. Go cannot preempt
// assembly asynchronously, so a stop-the-world waits for the call in
// progress: 64 KiB is about 8 µs out of cache, where a whole 1 MiB chunk
// held every GC stop for up to 130 µs. A multiple of 64, so every piece
// but the last is whole blocks.
const sum8Piece = 64 << 10

// sum8Bytes adds the bytes of p: the whole 64-byte blocks with sum8Blocks,
// at most sum8Piece bytes a call, the remainder with the portable word loop.
func sum8Bytes(p []byte) uint64 {
	var s uint64
	for len(p) > sum8Piece {
		s += sum8Span(p[:sum8Piece])
		p = p[sum8Piece:]
	}
	return s + sum8Span(p) + sum8Words(p[len(p)&^63:])
}

// sum8Span is sum8Blocks behind a Go prologue. sum8Blocks is NOSPLIT and
// sum8Bytes's loop has no call with a stack check, so only this function's
// check lets a pending preemption in between two pieces; inlined, the
// pieces would run back to back as one call does.
//
//go:noinline
func sum8Span(p []byte) uint64 { return sum8Blocks(p) }
