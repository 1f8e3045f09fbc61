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
//
// Write bodies land in the page cache. A data server over an extent store
// answers the connection's WriteDest with a writeLanding when a WriteReq
// overwrites ≥ zeroCopyMin resident bytes inside existing extent files and
// the gate is idle; the read loop then moves the body from the socket into
// the extent files' read-write mappings, and write only passes the gate,
// accounts, releases and acknowledges. Everything else keeps the buffered
// path: assembled in a frame buffer, queued at the gate, pwritten.

import (
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
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

// ErrWriteCut reports that a landed write's extent file was cut under it —
// truncated or removed, by the store or behind its back, while the body
// arrived — so the rest of the body was discarded. What landed before the
// cut may stay applied, as after any write that fails. It travels as
// StatusInvalid.
var ErrWriteCut = fmt.Errorf("%w: extent cut under a landing write", ErrInvalid)

// writeLanding is where a WriteReq's body lands (DataServer.WriteDest): the
// read-write mappings of the extent files under its range, one part each.
// The grant pinned the files and raised data.inflight (the probe's
// QueueLen, not the estimator's input) for the write; write unpins them
// when it finishes the landing (PostWrite lowers the gauge), Abort does
// both if the request never arrives.
type writeLanding struct {
	ds    *DataServer
	parts []extentPart // in the files' read-write mappings
	err   error        // ErrWriteCut once a part could not land
	over  atomic.Bool  // finished or aborted
}

// Land implements wire.Landing: the body's bytes go into their extent
// files' pages, part by part. Once a part cannot land (ErrWriteCut) the
// rest of the body is discarded, so the connection stays in step and only
// the write fails. Only a connection error is returned.
func (l *writeLanding) Land(r io.Reader, off, n int) (int, error) {
	landed := 0
	for _, p := range l.parts {
		if n == 0 || l.err != nil {
			break
		}
		if off >= len(p.b) {
			off -= len(p.b)
			continue
		}
		k := min(n, len(p.b)-off)
		got, err := l.ds.extents.fds.landInto(p.e, p.local+int64(off+k), r, p.b[off:off+k])
		landed += got
		n -= got
		off = 0
		if errors.Is(err, ErrWriteCut) {
			l.err = err
		} else if err != nil {
			return landed, err
		}
	}
	if n > 0 {
		return landed, discard(r, n)
	}
	return landed, nil
}

// finish ends a delivered landing: with a Sync store its extent files are
// fsynced, as WriteAt would, then they are unpinned. It reports why the
// body did not all land, if it did not.
func (l *writeLanding) finish() error {
	err := l.err
	if l.ds.extents.sync && err == nil {
		for _, p := range l.parts {
			if err = p.e.f.Sync(); err != nil {
				break
			}
		}
	}
	l.release()
	return err
}

// Abort implements wire.WriteLanding: the request will never reach write,
// so the landing gives back its extents and data.inflight.
func (l *writeLanding) Abort() {
	if l.release() {
		l.ds.m.inflight.Add(-1)
	}
}

// release returns the landing's fd-cache references, once; it reports
// whether this call did.
func (l *writeLanding) release() bool {
	if !l.over.CompareAndSwap(false, true) {
		return false
	}
	l.ds.extents.unpin(l.parts)
	return true
}

// readMapped reads len(p) bytes from r into p, a range of a file's
// mapping, and reports how many it consumed from r. A page of p past the
// file's end — the file was cut outside the store — makes it fail with
// ErrWriteCut: read(2) refuses to copy into the page with EFAULT, and a
// copy in user space (out of a buffered reader, an in-process pipe)
// faults, which is recovered with that read left unconsumed.
func readMapped(r io.Reader, p []byte) (n int, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if v := recover(); v != nil {
			if _, ok := v.(interface{ Addr() uintptr }); !ok {
				panic(v)
			}
			err = ErrWriteCut
		}
	}()
	for n < len(p) && err == nil {
		var k int
		k, err = r.Read(p[n:])
		n += k
	}
	switch {
	case n == len(p):
		err = nil
	case errors.Is(err, syscall.EFAULT):
		err = ErrWriteCut
	case err == io.EOF:
		err = io.ErrUnexpectedEOF
	}
	return n, err
}
