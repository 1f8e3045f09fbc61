package pfs

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dosas/internal/wire"
)

// DefaultWindowDepth is how many chunk requests a windowed transfer — one
// server's run of a ReadAt/WriteAt, or a raw local range — keeps in
// flight when the caller does not choose a depth. Depth 1 degenerates to
// the serial request/response loop.
const DefaultWindowDepth = 4

// normWindow applies defaults and clamps the chunk under the frame budget
// the data server enforces on reads.
func normWindow(depth, chunk int) (int, int) {
	if depth <= 0 {
		depth = DefaultWindowDepth
	}
	if chunk <= 0 {
		chunk = DefaultTransferChunk
	}
	if chunk > wire.MaxFrameSize-64 {
		chunk = wire.MaxFrameSize - 64
	}
	return depth, chunk
}

// ReadWindowed fills dst from the server-local stream of handle at addr,
// starting at local offset off, keeping up to depth chunk requests of at
// most chunk bytes pipelined on one connection. It returns the number of
// bytes received. Like Call, it transparently retries once on a fresh
// dial when a pooled connection turns out to be stale before anything was
// received. Depth or chunk <= 0 take the defaults.
func (p *Pool) ReadWindowed(addr string, handle uint64, dst []byte, off uint64, depth, chunk int) (int, error) {
	return p.readWindowed(addr, handle, contig(dst), off, depth, chunk, nil)
}

// errLocalEOF reports that the server's local stream ended inside the
// requested range. The striping client reads the rest as a hole; raw
// local-range callers see it as the error it always was.
var errLocalEOF = errors.New("pfs: local stream ends inside the range")

// readWindowed is ReadWindowed into a strided destination (a run's
// view of the caller's buffer: response bodies land straight in it) with
// an optional cancellation control: when ctl is non-nil every chunk
// request carries a cluster-unique ReqID registered with ctl, and a
// concurrent ctl.Cancel() both stops issuing new chunks and asks the
// server to truncate the in-flight ones. Used by hedged reads to reclaim
// the losing replica's bandwidth.
func (p *Pool) readWindowed(addr string, handle uint64, dst strided, off uint64, depth, chunk int, ctl *ReadControl) (int, error) {
	if dst.n == 0 {
		return 0, nil
	}
	depth, chunk = normWindow(depth, chunk)
	for {
		s, err := p.Stream(addr)
		if err != nil {
			return 0, err
		}
		n, err := p.readStream(s, addr, handle, dst, off, depth, chunk, ctl)
		s.Release()
		if err == nil {
			return n, nil
		}
		settled := isRemote(err) || errors.Is(err, ErrCancelled) || errors.Is(err, errLocalEOF)
		if n == 0 && s.Pooled() && !settled {
			continue // stale shared connection: retry on a fresh dial
		}
		if settled {
			return n, err
		}
		return n, fmt.Errorf("pfs: windowed read %s: %w", addr, err)
	}
}

// ReadControl lets one windowed read be cancelled from another goroutine.
// It tracks the ReqIDs currently in flight on the wire with their
// landings; Cancel marks the control stopped (the window loop checks
// between chunks), detaches the landings and fires a CancelReq per
// in-flight id so the server stops moving bytes the caller has already
// decided to discard.
type ReadControl struct {
	p    *Pool
	addr string

	mu       sync.Mutex
	inflight map[uint64]*landing
	stopped  bool
}

// NewReadControl returns a control for windowed reads against addr.
func (p *Pool) NewReadControl(addr string) *ReadControl {
	return &ReadControl{p: p, addr: addr, inflight: make(map[uint64]*landing)}
}

// add registers an in-flight ReqID and the landing of its response.
// Reports false when the control is already stopped — the caller must not
// send the request.
func (rc *ReadControl) add(id uint64, l *landing) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.stopped {
		return false
	}
	rc.inflight[id] = l
	return true
}

// done removes a ReqID whose response has fully arrived.
func (rc *ReadControl) done(id uint64) {
	rc.mu.Lock()
	delete(rc.inflight, id)
	rc.mu.Unlock()
}

// aborted reports whether Cancel has been called.
func (rc *ReadControl) aborted() bool {
	if rc == nil {
		return false
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.stopped
}

// Cancel stops the read: no further chunks are issued, and every chunk
// currently on the wire gets a best-effort CancelReq (asynchronous — the
// server zero-fills whatever it had not yet sent). Before it asks, Cancel
// detaches those chunks' landings: the zeros, and whatever else is left of
// their bodies, go to the discard sink and never reach the caller's
// buffer. Idempotent.
func (rc *ReadControl) Cancel() {
	if rc == nil {
		return
	}
	rc.mu.Lock()
	if rc.stopped {
		rc.mu.Unlock()
		return
	}
	rc.stopped = true
	ids := make([]uint64, 0, len(rc.inflight))
	lands := make([]*landing, 0, len(rc.inflight))
	for id, l := range rc.inflight {
		ids = append(ids, id)
		lands = append(lands, l)
	}
	rc.mu.Unlock()
	for _, l := range lands {
		l.detach()
	}
	for _, id := range ids {
		go func(id uint64) {
			rc.p.Call(rc.addr, &wire.CancelReq{RequestID: id}) //nolint:errcheck // best effort
		}(id)
	}
}

// WriteWindowed stores src into the server-local stream of handle at
// addr, starting at local offset off, with the same pipelining and
// stale-connection retry as ReadWindowed. It returns the number of bytes
// the server acknowledged applying.
func (p *Pool) WriteWindowed(addr string, handle uint64, src []byte, off uint64, depth, chunk int) (int, error) {
	return p.writeWindowed(addr, handle, contig(src), off, depth, chunk)
}

// writeWindowed is WriteWindowed out of a strided source (a run's view of
// the caller's buffer).
func (p *Pool) writeWindowed(addr string, handle uint64, src strided, off uint64, depth, chunk int) (int, error) {
	if src.n == 0 {
		return 0, nil
	}
	depth, chunk = normWindow(depth, chunk)
	for {
		s, err := p.Stream(addr)
		if err != nil {
			return 0, err
		}
		n, err := writeStream(s, handle, src, off, depth, chunk, p.Tenant())
		s.Release()
		if err == nil {
			return n, nil
		}
		if n == 0 && s.Pooled() && !isRemote(err) {
			continue // stale shared connection: retry on a fresh dial
		}
		if isRemote(err) {
			return n, err
		}
		return n, fmt.Errorf("pfs: windowed write %s: %w", addr, err)
	}
}

// chunkReq is one in-flight request of the sliding read window.
type chunkReq struct {
	n      int
	id     uint64 // ReqID on the wire; 0 when no control is attached
	sentAt time.Time
}

// readStream runs the sliding read window over one stream. Each chunk
// request is sent with a landing on its slice of dst, so its response body
// is written there by the connection's read loop as it arrives and Recv
// returns only its length (ReadResp.Landed): no byte is copied after it
// left the socket. A body longer than its request is discarded past the
// slice, and the read fails. Every chunk's send→recv time feeds the pool's
// latency tracker, which is what replica scoring and hedge delays are
// derived from.
//
// A short response means the stream held fewer bytes at that offset than
// requested, which invalidates the offsets of every request already in
// flight: those are drained and, unless the response says the stream
// ended there (errLocalEOF), the window restarts from the bytes actually
// received (resync), all in local-offset space. Short responses carry at
// least one byte, so the resync loop makes progress; an empty response
// short of the stream's end is an error.
func (p *Pool) readStream(s *Stream, addr string, handle uint64, dst strided, off uint64, depth, chunk int, ctl *ReadControl) (int, error) {
	tenant := p.Tenant()
	sent, recvd := 0, 0
	pending := make([]chunkReq, 0, depth)
	finish := func(id uint64) {
		if ctl != nil {
			ctl.done(id)
		}
	}
	abort := func() (int, error) {
		drainStream(s, len(pending)) //nolint:errcheck // result discarded anyway
		for _, cr := range pending {
			finish(cr.id)
		}
		return recvd, fmt.Errorf("read %s at local offset %d: %w", addr, off+uint64(recvd), ErrCancelled)
	}
	for recvd < dst.n {
		for len(pending) < depth && sent < dst.n {
			if ctl.aborted() {
				return abort()
			}
			n := min(chunk, dst.n-sent)
			cr := chunkReq{n: n, sentAt: time.Now()}
			req := &wire.ReadReq{Handle: handle, Offset: off + uint64(sent), Length: uint32(n), Tenant: tenant}
			l := &landing{dst: dst.slice(sent, n)}
			if ctl != nil {
				cr.id = p.nextReqID()
				req.ReqID = cr.id
				if !ctl.add(cr.id, l) {
					return abort()
				}
			}
			if err := s.send(req, l); err != nil {
				finish(cr.id)
				return recvd, err
			}
			pending = append(pending, cr)
			sent += n
		}
		resp, err := s.Recv()
		if err != nil {
			if isRemote(err) {
				drainStream(s, len(pending)-1) //nolint:errcheck // conn health only
			}
			for _, cr := range pending {
				finish(cr.id)
			}
			if IsCancelled(err) {
				return recvd, fmt.Errorf("read %s: %w", addr, ErrCancelled)
			}
			return recvd, err
		}
		head := pending[0]
		pending = pending[1:]
		finish(head.id)
		expect := head.n
		rr, ok := resp.(*wire.ReadResp)
		if !ok {
			return recvd, fmt.Errorf("read: unexpected response %v", resp.Type())
		}
		p.lat.Observe(addr, expect, time.Since(head.sentAt))
		k := rr.Landed
		if k > expect {
			return recvd, fmt.Errorf("read: got %d bytes for a %d-byte request", k, expect)
		}
		if ctl.aborted() {
			// Cancelled mid-window: the caller is discarding this buffer,
			// and the remaining responses' landings are detached.
			return abort()
		}
		recvd += k
		if k < expect {
			if err := drainStream(s, len(pending)); err != nil {
				return recvd, err
			}
			for _, cr := range pending {
				finish(cr.id)
			}
			pending = pending[:0]
			sent = recvd
			if rr.EOF {
				return recvd, fmt.Errorf("read %s at local offset %d: %w", addr, off+uint64(recvd), errLocalEOF)
			}
			if k == 0 {
				return recvd, fmt.Errorf("read: no data at local offset %d", off+uint64(recvd))
			}
		}
	}
	return recvd, nil
}

// writeStream runs the sliding write window over one stream; each chunk
// travels by reference (wire.WriteReq.Payload), so its frame aliases the
// caller's buffer until it has left the writer — which s.Release waits
// for. A short write acknowledgement is an error (as in the serial path: degraded
// partial writes would silently diverge replicas), but the remaining
// in-flight responses are drained first so the connection stays poolable.
func writeStream(s *Stream, handle uint64, src strided, off uint64, depth, chunk int, tenant string) (int, error) {
	sent, acked := 0, 0
	pending := make([]int, 0, depth)
	for acked < src.n {
		for len(pending) < depth && sent < src.n {
			n := min(chunk, src.n-sent)
			req := &wire.WriteReq{Handle: handle, Offset: off + uint64(sent), Payload: src.slice(sent, n), Tenant: tenant}
			if err := s.Send(req); err != nil {
				return acked, err
			}
			pending = append(pending, n)
			sent += n
		}
		resp, err := s.Recv()
		if err != nil {
			if isRemote(err) {
				drainStream(s, len(pending)-1) //nolint:errcheck // conn health only
			}
			return acked, err
		}
		expect := pending[0]
		pending = pending[1:]
		wr, ok := resp.(*wire.WriteResp)
		if !ok {
			return acked, fmt.Errorf("write: unexpected response %v", resp.Type())
		}
		if int(wr.N) != expect {
			drainStream(s, len(pending)) //nolint:errcheck // conn health only
			return acked, fmt.Errorf("write: applied %d of %d bytes at local offset %d", wr.N, expect, off+uint64(acked))
		}
		acked += expect
	}
	return acked, nil
}

// drainStream reads and discards n outstanding responses so a stream that
// hit an application-level failure finishes its exchange balanced and the
// connection can return to the pool. Remote errors among the drained
// responses are ignored; a transport error is returned (the connection is
// unusable anyway).
func drainStream(s *Stream, n int) error {
	for i := 0; i < n; i++ {
		if _, err := s.Recv(); err != nil && !isRemote(err) {
			return err
		}
	}
	return nil
}

// isRemote reports whether err is an application-level failure reported
// by the peer (the connection itself is healthy).
func isRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}
