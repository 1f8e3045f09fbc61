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

// sum8Bytes adds the bytes of p: the whole 64-byte blocks with sum8Blocks,
// the remainder with the portable word loop.
func sum8Bytes(p []byte) uint64 {
	return sum8Blocks(p) + sum8Words(p[len(p)&^63:])
}
