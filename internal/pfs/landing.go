package pfs

// Read bodies land in the caller's buffer. readStream registers, with each
// chunk request, the slice of the run's view its response fills; the
// connection's read loop moves the ReadResp body from the socket straight
// into that slice (wire.Landing), with no frame buffer in between.
//
// Lifetime: File.ReadAt and Pool.ReadWindowed never return while the read
// loop can still write into the caller's buffer. A landing's mutex is held
// while one segment lands; detach takes it, so it waits out the segment in
// progress, and every later byte of the body goes to a discard sink.
// Stream.Recv and Stream.Release detach the landings of the requests they
// finish or abandon, and ReadControl.Cancel detaches those it cancels
// before it asks the server to zero-fill them.

import (
	"io"
	"sync"
)

// landing is the part of a caller's buffer one ReadResp body lands in.
type landing struct {
	mu       sync.Mutex
	dst      strided
	detached bool
}

// Land implements wire.Landing: bytes within the view go into it, the rest
// of the body — past the view, or all of it once detached — is discarded.
func (l *landing) Land(r io.Reader, off, n int) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fit := 0
	if !l.detached && off < l.dst.n {
		fit = min(n, l.dst.n-off)
	}
	landed := 0
	var err error
	if fit > 0 {
		l.dst.slice(off, fit).pieces(func(p []byte) {
			if err == nil {
				var k int
				k, err = io.ReadFull(r, p)
				landed += k
			}
		})
	}
	if err == nil && n > fit {
		err = discard(r, n-fit)
	}
	return landed, err
}

// detach stops the landing from writing into the caller's buffer, waiting
// for a segment in progress. Nil-safe: requests without a landing.
func (l *landing) detach() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.detached = true
	l.mu.Unlock()
}

// sink lands the body of a response nobody waits for any more.
type sink struct{}

func (sink) Land(r io.Reader, _, n int) (int, error) { return 0, discard(r, n) }

// discard consumes n bytes of r.
func discard(r io.Reader, n int) error {
	_, err := io.CopyN(io.Discard, r, int64(n))
	return err
}
