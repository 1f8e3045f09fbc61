package wire

import (
	"math/bits"
	"sync"
)

// The data path moves every stripe chunk through three transient buffers —
// the server's store read buffer, the frame encode buffer, and the peer's
// frame decode buffer — so a naive implementation allocates ~3× the
// payload per transfer. This pool recycles all three. Buffers are
// size-classed by power of two: a buffer handed out for class c always has
// capacity ≥ 1<<c, and a returned buffer is filed under the largest class
// its capacity covers, so growth via append (which may land on an
// arbitrary capacity) still recycles.
//
// Ownership rules (enforced by tests in bufpool_test.go and
// robustness_test.go):
//
//   - WriteMessage owns its encode buffer internally; callers never see it.
//   - A FrameReader owns one decode buffer; messages it returns may alias
//     that buffer and are valid only until the next Read on the same
//     reader. Call Own (or copy the fields) to retain them.
//   - The data server's read path takes a buffer with GetBuf and hands it
//     to the response; the server returns it to the pool in PostWrite,
//     after the response frame (a copy) has left the connection.
const (
	minBufClass = 6  // 64 B — below this, pooling costs more than it saves
	maxBufClass = 26 // 64 MiB — MaxFrameSize; nothing larger crosses the wire
)

var bufPools [maxBufClass + 1]sync.Pool

// boxes recycles the *[]byte headers the class pools hold (a sync.Pool
// stores pointers), so that PutBuf does not allocate one per call.
var boxes sync.Pool

// bufClass returns the smallest class whose buffers hold n bytes.
func bufClass(n int) int {
	if n <= 1<<minBufClass {
		return minBufClass
	}
	return bits.Len(uint(n - 1))
}

// GetBuf returns a buffer of length n (capacity possibly larger) from the
// pool, allocating a fresh one when the class is empty or n exceeds the
// largest class.
func GetBuf(n int) []byte {
	c := bufClass(n)
	if c > maxBufClass {
		return make([]byte, n)
	}
	if v := bufPools[c].Get(); v != nil {
		box := v.(*[]byte)
		b := *box
		*box = nil
		boxes.Put(box)
		return b[:n]
	}
	return make([]byte, n, 1<<c)
}

// PutBuf returns b to the pool. The caller must not touch b (or any slice
// aliasing it) afterwards. Buffers too small or too large to class are
// dropped for the garbage collector.
func PutBuf(b []byte) {
	c := capClass(cap(b))
	if c < 0 {
		return
	}
	box, _ := boxes.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b[:cap(b)]
	bufPools[c].Put(box)
}

// capClass returns the largest class a capacity of n fully covers, or -1
// when n falls outside the pooled range.
func capClass(n int) int {
	if n < 1<<minBufClass {
		return -1
	}
	c := bits.Len(uint(n)) - 1 // floor(log2 n)
	if c > maxBufClass {
		return -1
	}
	return c
}
