package pfs

// Client side of the mux connection (see internal/wire/mux.go for the wire
// format and Server.serveMux for the peer). Per address the Pool keeps a
// small fixed set of shared connections; every Call and Stream to that
// address multiplexes onto one of them under a unique stream ID, so a
// multi-megabyte chunk of one server's run does not block a Ping — the
// writer's control lane preempts bulk segments on the wire.

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"dosas/internal/metrics"
	"dosas/internal/transport"
	"dosas/internal/wire"
)

// MuxConnsPerAddr is how many shared mux connections the pool keeps per
// peer. Two is enough to keep one saturated with bulk while the other
// stays hot for a dial-free fallback; concurrency comes from multiplexing,
// not sockets.
const MuxConnsPerAddr = 2

// VersionError reports a peer that answered the Hello exchange without
// committing to this build's mux version. It is a property of the peer's
// binary, not of the connection, so calls are not retried on it.
type VersionError struct {
	Addr string
	Peer uint32 // version the peer answered with; 0 when it sent no HelloResp
	Want uint32
}

// Error implements the error interface.
func (e *VersionError) Error() string {
	return fmt.Sprintf("pfs: %s speaks mux version %d, need %d", e.Addr, e.Peer, e.Want)
}

// peer resolves addr to its set of shared connections.
func (p *Pool) peer(addr string) (*muxPeer, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, transport.ErrClosed
	}
	mp := p.peers[addr]
	if mp == nil {
		mp = &muxPeer{p: p, addr: addr}
		for i := range mp.slots {
			mp.slots[i] = make(chan *muxConn, 1)
			mp.slots[i] <- nil
		}
		p.peers[addr] = mp
	}
	return mp, nil
}

// handshake dials addr and opens a mux connection with the Hello exchange,
// the only single-frame messages a connection carries. A peer that does not
// answer with this build's version is a *VersionError; a dial or transport
// failure is returned as it is and nothing about it is remembered, so the
// next call dials again.
func (p *Pool) handshake(addr string) (*muxConn, error) {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return nil, transport.ErrClosed // a stale-conn retry racing Close must not dial
	}
	c, err := p.Net.Dial(addr)
	if err != nil {
		return nil, err
	}
	p.reg.Counter("pool.dials").Inc()
	hello := &wire.HelloReq{MaxVersion: wire.MuxVersion, MaxSegment: wire.DefaultMuxSegment}
	if err := wire.WriteMessage(c, hello); err != nil {
		c.Close()
		return nil, fmt.Errorf("pfs: hello to %s: %w", addr, err)
	}
	resp, err := wire.ReadMessage(c)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("pfs: hello to %s: %w", addr, err)
	}
	hr, ok := resp.(*wire.HelloResp)
	if !ok || hr.Version < wire.MuxVersion {
		c.Close()
		ve := &VersionError{Addr: addr, Want: wire.MuxVersion}
		if ok {
			ve.Peer = hr.Version
		}
		return nil, ve
	}
	p.reg.Counter("pool.mux.handshakes").Inc()
	return newMuxConn(p, c, clampSegment(hr.MaxSegment)), nil
}

// muxPeer manages the shared connections to one address.
type muxPeer struct {
	p    *Pool
	addr string
	rr   uint32 // round-robin cursor over slots

	// slots holds each shared connection in a one-element channel (nil
	// until its first dial). A caller takes a slot's connection to check
	// or replace it and puts one back (put), so a dial that stalls holds up
	// the callers of its own slot and no others.
	slots  [MuxConnsPerAddr]chan *muxConn
	closed atomic.Bool // set by closeAll
}

// conn returns a live shared connection for the peer, dialing (and
// handshaking) lazily. fresh reports that the connection was established
// by this very call — a transport failure on it is real, not staleness.
func (mp *muxPeer) conn() (mc *muxConn, fresh bool, err error) {
	slot := mp.slots[int(atomic.AddUint32(&mp.rr, 1))%MuxConnsPerAddr]
	old := <-slot
	if old != nil && !old.dead() {
		mp.put(slot, old)
		return old, false, nil
	}
	if mc, err = mp.p.handshake(mp.addr); err != nil {
		mp.put(slot, old)
		return nil, false, err
	}
	mp.put(slot, mc)
	return mc, true, nil
}

// put returns a slot's connection. Once the peer is closed — closeAll
// passes a taken slot by — it closes the connection too, so a call on it
// fails.
func (mp *muxPeer) put(slot chan *muxConn, mc *muxConn) {
	slot <- mc
	if mp.closed.Load() {
		mp.closeAll()
	}
}

// call runs one request/response exchange over a shared connection,
// retrying once on a fresh connection when an inherited one turns out to
// be stale.
func (mp *muxPeer) call(req wire.Message) (wire.Message, error) {
	p := mp.p
	for attempt := 0; ; attempt++ {
		mc, fresh, err := mp.conn()
		if err != nil {
			return nil, err
		}
		var res muxResult
		_, ch, err := mc.send(req, nil, nil)
		if err == nil {
			res = <-ch
			err = res.err
		}
		if err != nil {
			if !fresh && attempt == 0 {
				p.reg.Counter("pool.stale.retries").Inc()
				continue
			}
			return nil, fmt.Errorf("pfs: call %s %v: %w", mp.addr, req.Type(), err)
		}
		p.calls.Inc()
		if em, ok := res.msg.(*wire.ErrorMsg); ok {
			re := &RemoteError{Code: em.Code, Op: em.Op, Detail: em.Detail}
			wire.PutBuf(res.buf)
			return nil, re
		}
		wire.Own(res.msg) // detach before the pooled frame buffer is recycled
		wire.PutBuf(res.buf)
		return res.msg, nil
	}
}

// closeAll tears down the peer's shared connections (Pool.Close) without
// waiting for a taken slot: a dial in progress closes what it produced
// when it puts it back (put), and a later dial finds the pool closed
// (handshake).
func (mp *muxPeer) closeAll() {
	mp.closed.Store(true)
	for _, slot := range mp.slots {
		select {
		case mc := <-slot:
			if mc != nil {
				mc.c.Close() // read loop notices and fails in-flight calls
			}
			slot <- nil
		default:
		}
	}
}

// muxResult is a completed exchange delivered to the caller's channel.
// buf is the pooled buffer msg may alias; the receiver recycles it.
type muxResult struct {
	msg wire.Message
	buf []byte
	err error
}

// muxCall is one in-flight call: where its result goes and, for a read
// chunk, where its ReadResp body lands.
type muxCall struct {
	ch   chan muxResult
	land *landing // nil: the response is assembled in a frame buffer
}

// muxConn is one shared multiplexed connection: a priority-aware writer,
// a demux read loop, and the table of in-flight calls keyed by stream ID.
// Exactly one of {read loop, write-failure callback, forget, fail} removes
// a call from the table and owns delivering its result.
type muxConn struct {
	p       *Pool
	c       net.Conn
	mw      *wire.MuxWriter
	streams *metrics.Gauge // pool.mux.streams

	mu    sync.Mutex
	calls map[uint32]muxCall
	next  uint32
	err   error
}

func newMuxConn(p *Pool, c net.Conn, segment int) *muxConn {
	mc := &muxConn{p: p, c: c, calls: make(map[uint32]muxCall), streams: p.reg.Gauge("pool.mux.streams")}
	mw := wire.NewMuxWriter(c, segment)
	mw.Stats = &p.wireStats
	ctrl := p.reg.Gauge("pool.mux.queue.control")
	bulk := p.reg.Gauge("pool.mux.queue.bulk")
	mw.DepthHook = func(class uint8, delta int) {
		if class == wire.ClassControl {
			ctrl.Add(int64(delta))
		} else {
			bulk.Add(int64(delta))
		}
	}
	mw.OnError = func(error) {
		// A dead writer means a dead conn: closing it unblocks the read
		// loop, which fails every in-flight call.
		c.Close()
	}
	mc.mw = mw
	go mc.readLoop()
	return mc
}

func (mc *muxConn) dead() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.err != nil
}

// send registers a new stream and enqueues req on it. The response (or
// the transport failure) is delivered exactly once on the returned
// channel, which is buffered so no deliverer ever blocks. left, when
// non-nil, is Done once the frame has left the writer, sent or failed —
// not at all when send itself fails. A nil left is for requests that hold
// no caller memory by reference. land, when non-nil, is where the body of
// a ReadResp answering req lands.
func (mc *muxConn) send(req wire.Message, left *sync.WaitGroup, land *landing) (uint32, chan muxResult, error) {
	ch := make(chan muxResult, 1)
	mc.mu.Lock()
	if mc.err != nil {
		err := mc.err
		mc.mu.Unlock()
		return 0, nil, err
	}
	mc.next++
	id := mc.next
	mc.calls[id] = muxCall{ch: ch, land: land}
	mc.mu.Unlock()
	mc.streams.Add(1)
	mc.mw.Enqueue(req, id, func(err error) { //nolint:errcheck // failure delivered via ch
		if err != nil {
			mc.resolve(id, muxResult{err: err})
		}
		if left != nil {
			left.Done()
		}
	})
	return id, ch, nil
}

// resolve removes stream id from the table and, if it was still there,
// delivers res on its channel. Losing the race (someone else resolved or
// forgot the stream) is fine — exactly one delivery happens.
func (mc *muxConn) resolve(id uint32, res muxResult) {
	mc.mu.Lock()
	call, ok := mc.calls[id]
	if ok {
		delete(mc.calls, id)
	}
	mc.mu.Unlock()
	if !ok {
		return
	}
	mc.streams.Add(-1)
	call.ch <- res
}

// forget abandons stream id (Stream.Release with responses still in
// flight): if the response has not arrived, the read loop will drop it.
func (mc *muxConn) forget(id uint32) {
	mc.mu.Lock()
	_, ok := mc.calls[id]
	if ok {
		delete(mc.calls, id)
	}
	mc.mu.Unlock()
	if ok {
		mc.streams.Add(-1)
	}
}

// dest is the read loop's wire.MuxReader.Dest: the landing registered with
// the stream's call, the discard sink for a stream nobody waits for any
// more, or nil (a frame buffer) for a call that registered none.
func (mc *muxConn) dest(stream uint32) wire.Landing {
	mc.mu.Lock()
	call, ok := mc.calls[stream]
	mc.mu.Unlock()
	switch {
	case !ok:
		return sink{}
	case call.land == nil:
		return nil
	}
	return call.land
}

// readLoop demultiplexes responses to their callers until the connection
// dies, then fails everything still in flight.
func (mc *muxConn) readLoop() {
	mr := wire.NewMuxReader(mc.c)
	mr.Dest, mr.Stats = mc.dest, &mc.p.wireStats
	defer mr.Close()
	for {
		f, err := mr.Read()
		if err != nil {
			mc.fail(err)
			return
		}
		mc.mu.Lock()
		call, ok := mc.calls[f.Stream]
		if ok {
			delete(mc.calls, f.Stream)
		}
		mc.mu.Unlock()
		if !ok {
			wire.PutBuf(f.Buf) // abandoned stream (Released before Recv)
			continue
		}
		mc.streams.Add(-1)
		call.ch <- muxResult{msg: f.Msg, buf: f.Buf}
	}
}

// fail marks the connection dead and delivers err to every in-flight
// call. Runs once, from the read loop.
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	if mc.err == nil {
		mc.err = err
	}
	calls := mc.calls
	mc.calls = make(map[uint32]muxCall)
	mc.mu.Unlock()
	mc.c.Close()
	for _, call := range calls {
		mc.streams.Add(-1)
		call.ch <- muxResult{err: err}
	}
	mc.mw.Close() //nolint:errcheck // conn already dead
}
