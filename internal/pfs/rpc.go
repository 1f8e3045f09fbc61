// Package pfs implements the parallel file system DOSAS runs on: a PVFS2-
// style design with one metadata server (namespace and stripe layout), N
// data servers (stripe storage plus, when wrapped by the core package,
// active-storage processing), and a striping client that converts file
// ranges into parallel per-server transfers.
package pfs

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dosas/internal/metrics"
	"dosas/internal/transport"
	"dosas/internal/wire"
)

// RemoteError is a failure reported by a peer over the wire.
type RemoteError struct {
	Code   uint32
	Op     string
	Detail string
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("pfs: remote %s: code=%d %s", e.Op, e.Code, e.Detail)
}

// IsNotFound reports whether err is a not-found failure, local or remote.
func IsNotFound(err error) bool {
	if errors.Is(err, ErrNotFound) {
		return true
	}
	var re *RemoteError
	return errors.As(err, &re) && re.Code == wire.StatusNotFound
}

// IsExists reports whether err is an already-exists failure, local or
// remote.
func IsExists(err error) bool {
	if errors.Is(err, ErrExists) {
		return true
	}
	var re *RemoteError
	return errors.As(err, &re) && re.Code == wire.StatusExists
}

// IsCancelled reports whether err means the request was withdrawn by a
// CancelReq, local or remote — the expected outcome for a hedged read's
// losing replica, not a failure.
func IsCancelled(err error) bool {
	if errors.Is(err, ErrCancelled) {
		return true
	}
	var re *RemoteError
	return errors.As(err, &re) && re.Code == wire.StatusCancelled
}

// Pool is the client-side connection manager. All calls and streams to an
// address share a small fixed set of multiplexed connections (opened by a
// mandatory HelloReq/HelloResp handshake, see mux.go), responses complete
// out of order, and control messages preempt in-flight bulk transfers on
// the wire.
type Pool struct {
	Net transport.Network

	mu     sync.Mutex
	peers  map[string]*muxPeer
	closed bool
	tenant string // stamped on windowed bulk transfers (read/write chunks)

	reg *metrics.Registry
	// calls is pool.mux.calls, resolved once: muxPeer.call adds to it per
	// exchange, and a lookup by name takes the registry's lock.
	calls *metrics.Counter

	// lat scores per-server chunk latency for replica selection and
	// hedge-delay derivation; reqIDs mints HedgeIDBit-tagged ids for
	// cancellable windowed reads.
	lat    *LatencyTracker
	reqIDs atomic.Uint64

	wireStats wire.FrameStats // how frames moved their bodies, both ways: pool.wire.*
}

// NewPool returns a pool dialing through n.
func NewPool(n transport.Network) *Pool {
	reg := metrics.NewRegistry()
	p := &Pool{
		Net:   n,
		peers: make(map[string]*muxPeer),
		reg:   reg,
		calls: reg.Counter("pool.mux.calls"),
		lat:   NewLatencyTracker(),
	}
	// Seed the read-id counter so ids from distinct client pools hitting
	// the same server registry are disjoint in practice.
	p.reqIDs.Store(uint64(time.Now().UnixNano()))
	return p
}

// Latency exposes the pool's per-server latency tracker (replica scoring,
// hedge delays, tests).
func (p *Pool) Latency() *LatencyTracker { return p.lat }

// nextReqID mints a cluster-unique, HedgeIDBit-tagged request id for a
// cancellable windowed read.
func (p *Pool) nextReqID() uint64 { return p.reqIDs.Add(1) | HedgeIDBit }

// SetTenant stamps every subsequent windowed bulk transfer (read and
// write chunks) with the tenant id, so data servers attribute normal-I/O
// bytes to the issuing workload. Empty (the default) keeps frames
// byte-identical to pre-tenant clients. Call before the first transfer.
func (p *Pool) SetTenant(tenant string) {
	p.mu.Lock()
	p.tenant = tenant
	p.mu.Unlock()
}

// Tenant returns the pool's configured tenant id.
func (p *Pool) Tenant() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tenant
}

// Metrics exposes the pool's counters (pool.dials, pool.stale.retries,
// pool.mux.*, pool.wire.* — see DESIGN.md §10). The
// pool.wire counters are mirrored from the framing layer's at each call.
func (p *Pool) Metrics() *metrics.Registry {
	mirrorCounter(p.reg, "pool.wire.writev_calls", p.wireStats.WritevCalls.Load())
	mirrorCounter(p.reg, "pool.wire.copied_bytes", p.wireStats.CopiedBytes.Load())
	mirrorCounter(p.reg, "pool.wire.landed_bytes", p.wireStats.LandedBytes.Load())
	mirrorCounter(p.reg, "pool.wire.recv_copied_bytes", p.wireStats.RecvCopiedBytes.Load())
	return p.reg
}

// mirrorCounter raises the registry counter name to v, a monotonic count
// kept outside the registry so that its hot path makes no lookups.
func mirrorCounter(reg *metrics.Registry, name string, v int64) {
	c := reg.Counter(name)
	if d := v - c.Value(); d > 0 {
		c.Add(d)
	}
}

// Call sends req to addr and waits for the response. A wire.ErrorMsg
// response is converted into a *RemoteError. When the shared connection
// turns out to be stale (its server restarted since it was established),
// the call transparently retries once on a fresh dial; a failure on a
// fresh connection is reported as-is. The response is detached (wire.Own)
// from the connection's decode buffer, so callers may retain it freely;
// bulk transfers that want to avoid that copy use Stream instead.
func (p *Pool) Call(addr string, req wire.Message) (wire.Message, error) {
	mp, err := p.peer(addr)
	if err != nil {
		return nil, err
	}
	return mp.call(req)
}

// Close drops every shared connection; in-flight calls fail with a
// transport error.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	peers := p.peers
	p.peers = make(map[string]*muxPeer)
	p.mu.Unlock()
	for _, mp := range peers {
		mp.closeAll()
	}
}

// Stream is a pipelined exchange: the caller may Send several requests
// before Recving their responses, which arrive in request order. This is
// how the sliding-window data path keeps multiple chunks in flight per
// server. The stream's requests share the wire with every other call to
// that peer (each request is its own mux stream; Recv restores request
// order from the demux). A Stream is not safe for concurrent use.
//
// A request sent by reference (wire.WriteReq.Payload) aliases its caller's
// memory until its frame has left the writer, sent or failed. It may queue
// there behind other callers' frames; Release waits for every such frame.
// A read chunk sent with a landing has its response body written into the
// caller's memory by the connection's read loop; Recv and Release detach
// the landing, so neither returns while the read loop can still write there.
type Stream struct {
	mc      *muxConn
	pooled  bool // conn predates this stream (may be stale)
	pending []pendingCall
	prev    []byte         // pooled buffer backing the last Recv'd message
	queued  sync.WaitGroup // frames enqueued and still with the writer
}

// pendingCall is one in-flight mux request of a Stream.
type pendingCall struct {
	id   uint32
	ch   chan muxResult
	land *landing
}

// Stream opens a pipelined exchange with addr over one of the peer's
// shared connections. The caller must finish with Release.
func (p *Pool) Stream(addr string) (*Stream, error) {
	mp, err := p.peer(addr)
	if err != nil {
		return nil, err
	}
	mc, fresh, err := mp.conn()
	if err != nil {
		return nil, err
	}
	return &Stream{mc: mc, pooled: !fresh}, nil
}

// Pooled reports whether the stream rides a connection that predates it —
// callers use it to decide whether a transport failure warrants one retry
// on a fresh dial (the connection may simply have gone stale).
func (s *Stream) Pooled() bool { return s.pooled }

// Send enqueues one request frame without waiting for its response.
func (s *Stream) Send(req wire.Message) error { return s.send(req, nil) }

// send is Send with the landing, if any, of a read chunk's response body.
func (s *Stream) send(req wire.Message, l *landing) error {
	s.queued.Add(1)
	id, ch, err := s.mc.send(req, &s.queued, l)
	if err != nil {
		s.queued.Done() // never enqueued
		return err
	}
	s.pending = append(s.pending, pendingCall{id: id, ch: ch, land: l})
	return nil
}

// Recv reads the next response in request order. A wire.ErrorMsg is
// converted to *RemoteError (the stream stays usable: the server keeps
// answering pipelined requests after an error response). The returned
// message may alias a pooled decode buffer and is valid only until the
// next Recv or Release; callers that retain it must wire.Own it.
func (s *Stream) Recv() (wire.Message, error) {
	if len(s.pending) == 0 {
		return nil, errors.New("pfs: Recv with no pending Send")
	}
	if s.prev != nil {
		wire.PutBuf(s.prev)
		s.prev = nil
	}
	next := s.pending[0]
	s.pending = s.pending[1:]
	res := <-next.ch
	next.land.detach() // complete unless res is a failure
	if res.err != nil {
		return nil, res.err
	}
	if em, ok := res.msg.(*wire.ErrorMsg); ok {
		re := &RemoteError{Code: em.Code, Op: em.Op, Detail: em.Detail}
		wire.PutBuf(res.buf)
		return nil, re
	}
	s.prev = res.buf
	return res.msg, nil
}

// Release finishes the stream. There is nothing to pool — the connection
// is shared — so Release only waits for the stream's frames to leave the
// writer, recycles buffers and abandons still-pending responses (the demux
// drops them on arrival, landing bodies in the discard sink).
func (s *Stream) Release() {
	s.queued.Wait()
	if s.prev != nil {
		wire.PutBuf(s.prev)
		s.prev = nil
	}
	for _, pc := range s.pending {
		pc.land.detach()
		s.mc.forget(pc.id)
		select {
		case res := <-pc.ch:
			// Response landed before the forget; recycle its buffer.
			wire.PutBuf(res.buf)
		default:
			// Not yet arrived (the demux will drop it), or arriving
			// right now — in that razor-thin window the buffer is
			// left for the GC, which is safe, just a pool miss.
		}
	}
	s.pending = nil
}

// Handler processes one request message and returns the response. Returning
// an error sends a wire.ErrorMsg built with ToErrorMsg.
type Handler interface {
	Handle(m wire.Message) (wire.Message, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(m wire.Message) (wire.Message, error)

// Handle calls f(m).
func (f HandlerFunc) Handle(m wire.Message) (wire.Message, error) { return f(m) }

// PostWriter is implemented by handlers that need a callback after the
// response has been written to the connection. The data server uses it to
// recycle a response's buffer or payload once the frame has left, and to
// keep a request counted in data.inflight (the probe's QueueLen) until
// then: handler plus response transfer.
type PostWriter interface {
	PostWrite(req, resp wire.Message)
}

// WriteLander is implemented by handlers that can take WriteReq bodies
// straight from the connection: the server's read loop asks WriteDest
// once a request's address and body length are in (wire.MuxReader), and
// the handler then gets the request with the body landed (WriteReq.Lander)
// instead of in Data.
type WriteLander interface {
	WriteDest(handle, off uint64, n int) wire.WriteLanding
}

// ToErrorMsg converts err into the wire error response for operation op,
// preserving the code of a RemoteError being relayed.
func ToErrorMsg(op string, err error) *wire.ErrorMsg {
	var re *RemoteError
	if errors.As(err, &re) {
		return &wire.ErrorMsg{Code: re.Code, Op: op, Detail: re.Detail}
	}
	code := wire.StatusInternal
	switch {
	case errors.Is(err, ErrNotFound):
		code = wire.StatusNotFound
	case errors.Is(err, ErrExists):
		code = wire.StatusExists
	case errors.Is(err, ErrInvalid):
		code = wire.StatusInvalid
	case errors.Is(err, ErrUnsupported):
		code = wire.StatusUnsupported
	case errors.Is(err, ErrCancelled):
		code = wire.StatusCancelled
	}
	return &wire.ErrorMsg{Code: code, Op: op, Detail: err.Error()}
}

// Sentinel errors mapped onto wire status codes.
var (
	ErrNotFound    = errors.New("pfs: not found")
	ErrExists      = errors.New("pfs: already exists")
	ErrInvalid     = errors.New("pfs: invalid argument")
	ErrUnsupported = errors.New("pfs: unsupported operation")
	ErrCancelled   = errors.New("pfs: request cancelled")
)

// Server accepts connections on a listener and dispatches requests to a
// Handler. Every connection opens with the client's HelloReq and then
// speaks mux framing: requests on it are handled concurrently under a
// bounded semaphore and responses complete out of order.
type Server struct {
	l       transport.Listener
	h       Handler
	stats   *wire.FrameStats
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closing bool
	done    chan struct{}
}

// NewServer returns a server ready to Run.
func NewServer(l transport.Listener, h Handler) *Server {
	return &Server{l: l, h: h, conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
}

// SetFrameStats shares st with every connection's framing writer, so
// sendfile/writev/copy accounting lands in one place (the data server's
// WireStats). Call before Start.
func (s *Server) SetFrameStats(st *wire.FrameStats) { s.stats = st }

// Addr returns the listener's bound address.
func (s *Server) Addr() string { return s.l.Addr() }

// Run accepts connections until Close is called. It always returns a
// non-nil error; after Close the error is transport.ErrClosed.
func (s *Server) Run() error {
	defer close(s.done)
	for {
		c, err := s.l.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if closing {
				return transport.ErrClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			c.Close()
			return transport.ErrClosed
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// Start runs the server in a new goroutine and returns immediately.
func (s *Server) Start() { go s.Run() } //nolint:errcheck // accept-loop errors surface via Close

// safeHandle dispatches one request, converting a handler panic into an
// error so a bad request cannot take down the shared connection.
func safeHandle(h Handler, req wire.Message) (resp wire.Message, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("handler panic: %v", r)
		}
	}()
	return h.Handle(req)
}

// serveConn reads the one single-frame message a connection may open with,
// the client's HelloReq, and serves mux framing from there. A client that
// speaks an older mux version is told so with HelloResp{Version: 0}; any
// other first frame is answered with StatusUnsupported. Either way the
// connection closes without the handler having seen a request.
func (s *Server) serveConn(c net.Conn) {
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	first, err := wire.ReadMessage(c)
	if err != nil {
		return // EOF or protocol error: drop the connection
	}
	var answer wire.Message
	seg := 0
	switch hello, ok := first.(*wire.HelloReq); {
	case !ok:
		answer = &wire.ErrorMsg{Code: wire.StatusUnsupported, Op: first.Type().String(),
			Detail: "connection must open with HelloReq"}
	case hello.MaxVersion < wire.MuxVersion:
		answer = &wire.HelloResp{Version: 0}
	default:
		seg = clampSegment(hello.MaxSegment)
		answer = &wire.HelloResp{Version: wire.MuxVersion, MaxSegment: uint32(seg)}
	}
	if wire.WriteMessage(c, answer) != nil || seg == 0 {
		return
	}
	s.serveMux(c, seg)
}

// clampSegment bounds a peer-proposed segment size to sane values.
func clampSegment(n uint32) int {
	if n < wire.MinMuxSegment {
		return wire.MinMuxSegment
	}
	if n > wire.DefaultMuxSegment {
		return wire.DefaultMuxSegment
	}
	return int(n)
}

// muxServerConcurrency bounds concurrently executing handlers per mux
// connection. The read loop blocks when all are busy, so a flood of
// requests backpressures onto the socket instead of goroutines.
const muxServerConcurrency = 32

// serveMux serves one connection past its handshake: requests dispatch
// concurrently, each response is enqueued to the priority-aware writer
// under its request's stream ID. PostWrite fires after the response is on
// the wire (or has failed), once per request, so per-request accounting
// (the data.inflight gauge, pooled read buffers) stays balanced.
//
// Handler goroutines stay for the connection's life: a fresh goroutine
// per request grows its stack anew on the way into the handler, which
// was 8% of the CPU of a 4 KiB read. A frame goes to an idle handler over
// the unbuffered work channel; one is started only when none is idle.
func (s *Server) serveMux(c net.Conn, segment int) {
	pw, _ := s.h.(PostWriter)
	mw := wire.NewMuxWriter(c, segment)
	mw.Stats = s.stats
	mr := wire.NewMuxReader(c)
	defer mr.Close()
	mr.Stats = s.stats
	if wl, ok := s.h.(WriteLander); ok {
		mr.WriteDest = wl.WriteDest
	}
	work := make(chan wire.MuxFrame)
	var wg sync.WaitGroup
	for handlers := 0; ; {
		f, err := mr.Read()
		if err != nil {
			break // EOF or protocol error: stop reading, flush what's in flight
		}
		if handlers == muxServerConcurrency {
			work <- f
			continue
		}
		select {
		case work <- f:
			continue
		default:
		}
		handlers++
		wg.Add(1)
		go func(f wire.MuxFrame) {
			defer wg.Done()
			for ok := true; ok; f, ok = <-work {
				req := f.Msg
				resp, herr := safeHandle(s.h, req)
				if herr != nil {
					resp = ToErrorMsg(req.Type().String(), herr)
				}
				if resp == nil {
					// The conn is shared with other callers, so answer with
					// an error instead of tearing everyone down.
					resp = &wire.ErrorMsg{Code: wire.StatusInternal,
						Op: req.Type().String(), Detail: "handler returned no response"}
				}
				buf := f.Buf
				mw.Enqueue(resp, f.Stream, func(error) { //nolint:errcheck // done callback handles failure
					// Runs after the response hit the wire or definitively
					// failed: either way the exchange is over, so PostWrite
					// fires exactly once and the request buffer (which req
					// aliases) is recycled.
					if pw != nil {
						pw.PostWrite(req, resp)
					}
					wire.PutBuf(buf)
				})
			}
		}(f)
	}
	close(work)
	wg.Wait()
	mw.Close()
}

// Close stops accepting, closes all live connections, and waits for the
// accept loop to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.closing = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.l.Close()
	<-s.done
}
