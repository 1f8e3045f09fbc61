package kernels

import (
	"bytes"
	"math/rand"
	"testing"
)

var sum8ArchPaths = []sum8Path{{"sse2", sum8Blocks, func(n int) int { return n &^ 63 }}}

// TestSum8BytesAcrossPieces: sum8Bytes, which hands sum8Blocks at most
// sum8Piece bytes a call, adds exactly what the word loop adds on lengths
// either side of one piece and over three pieces and a partial block, at
// every start alignment within a cache line, on all-0xFF bytes and noise.
func TestSum8BytesAcrossPieces(t *testing.T) {
	random := make([]byte, 3*sum8Piece+63+64)
	rand.New(rand.NewSource(49)).Read(random)
	for name, src := range map[string][]byte{"ones": bytes.Repeat([]byte{0xFF}, len(random)), "random": random} {
		for off := 0; off < 64; off++ {
			for _, n := range []int{sum8Piece - 1, sum8Piece, sum8Piece + 1, 3*sum8Piece + 63} {
				p := src[off : off+n]
				if got, want := sum8Bytes(p), sum8Words(p); got != want {
					t.Fatalf("sum8Bytes over %d %s bytes at offset %d: %d, want %d", n, name, off, got, want)
				}
			}
		}
	}
}
