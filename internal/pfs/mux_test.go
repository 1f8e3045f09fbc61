package pfs

import (
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dosas/internal/transport"
	"dosas/internal/wire"
)

// pongHandler answers Pings; anything else is unsupported. block, when
// non-nil, is waited on before answering Pings with Seq >= 1000 —
// deterministic slow-request injection. panicSeq, when non-zero, panics.
type pongHandler struct {
	block    chan struct{}
	panicSeq uint64
}

func (h *pongHandler) Handle(m wire.Message) (wire.Message, error) {
	ping, ok := m.(*wire.Ping)
	if !ok {
		return nil, ErrUnsupported
	}
	if h.panicSeq != 0 && ping.Seq == h.panicSeq {
		panic("injected handler panic")
	}
	if h.block != nil && ping.Seq >= 1000 {
		<-h.block
	}
	return &wire.Pong{Seq: ping.Seq}, nil
}

// startPongServer runs a Server over Inproc and returns the network, the
// address, and the server (already started, cleaned up with the test).
func startPongServer(t *testing.T, h Handler) (*transport.Inproc, string, *Server) {
	t.Helper()
	n := transport.NewInproc()
	l, err := n.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, h)
	srv.Start()
	t.Cleanup(srv.Close)
	return n, "peer", srv
}

func counter(t *testing.T, p *Pool, name string) int64 {
	t.Helper()
	return p.Metrics().Counter(name).Value()
}

// Concurrent calls to a mux-capable peer must multiplex over the shared
// connection set instead of dialing per call, and must complete out of
// order: with every shared connection saturated by blocked requests, a
// fast request still gets through.
func TestMuxCallsShareConnectionsAndCompleteOutOfOrder(t *testing.T) {
	h := &pongHandler{block: make(chan struct{})}
	n, addr, _ := startPongServer(t, h)
	p := NewPool(n)
	defer p.Close()

	const slow = 4
	var wg sync.WaitGroup
	for i := 0; i < slow; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := p.Call(addr, &wire.Ping{Seq: uint64(1000 + i)}); err != nil {
				t.Errorf("slow call %d: %v", i, err)
			}
		}(i)
	}
	// Wait until all slow requests are in flight server-side, so both
	// shared connections are carrying blocked requests.
	deadline := time.Now().Add(5 * time.Second)
	for p.Metrics().Gauge("pool.mux.streams").Value() < slow {
		if time.Now().After(deadline) {
			t.Fatalf("only %d slow calls in flight", p.Metrics().Gauge("pool.mux.streams").Value())
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := p.Call(addr, &wire.Ping{Seq: 7})
	if err != nil {
		t.Fatalf("fast call while peers blocked: %v", err)
	}
	if resp.(*wire.Pong).Seq != 7 {
		t.Fatalf("fast call got %v", resp)
	}
	close(h.block)
	wg.Wait()

	if d := counter(t, p, "pool.dials"); d > MuxConnsPerAddr {
		t.Errorf("%d dials for %d concurrent calls, want <= %d shared conns", d, slow+1, MuxConnsPerAddr)
	}
	if c := counter(t, p, "pool.mux.calls"); c != slow+1 {
		t.Errorf("pool.mux.calls = %d, want %d", c, slow+1)
	}
	if s := p.Metrics().Gauge("pool.mux.streams").Value(); s != 0 {
		t.Errorf("pool.mux.streams = %d after all calls done, want 0", s)
	}
}

// fakePeer accepts connections on addr, reads the client's Hello and hands
// the connection to answer, which may reply before it is closed.
func fakePeer(t *testing.T, n *transport.Inproc, addr string, answer func(net.Conn)) transport.Listener {
	t.Helper()
	l, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			if m, err := wire.ReadMessage(c); err == nil {
				if _, ok := m.(*wire.HelloReq); !ok {
					t.Errorf("first frame from the pool is %v, want HelloReq", m.Type())
				}
				answer(c)
			}
			c.Close()
		}
	}()
	return l
}

// A connection that dies during the Hello exchange (a data server caught
// mid-restart) fails that one call and nothing more: the pool keeps no
// memory of it, and the next call handshakes with whoever listens now.
func TestHelloTransportFailureIsNotRemembered(t *testing.T) {
	n := transport.NewInproc()
	l := fakePeer(t, n, "peer", func(net.Conn) {}) // read the Hello, hang up
	p := NewPool(n)
	defer p.Close()

	if _, err := p.Call("peer", &wire.Ping{Seq: 1}); err == nil {
		t.Fatal("call through a connection reset during Hello succeeded")
	}
	l.Close()
	l2, err := n.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l2, &pongHandler{})
	srv.Start()
	defer srv.Close()

	resp, err := p.Call("peer", &wire.Ping{Seq: 2})
	if err != nil {
		t.Fatalf("call after the peer came back: %v", err)
	}
	if resp.(*wire.Pong).Seq != 2 {
		t.Fatalf("got %v", resp)
	}
	if c := counter(t, p, "pool.mux.handshakes"); c != 1 {
		t.Errorf("pool.mux.handshakes = %d, want 1", c)
	}
	if c := counter(t, p, "pool.mux.calls"); c != 1 {
		t.Errorf("pool.mux.calls = %d, want 1", c)
	}
}

// A peer that answers the Hello with an older version, or with something
// that is no HelloResp at all, is refused with a *VersionError naming both
// versions, at once: the call is not retried on fresh dials.
func TestOldPeerIsATypedError(t *testing.T) {
	for _, tc := range []struct {
		name   string
		answer wire.Message
		peer   uint32
	}{
		{"hello v1", &wire.HelloResp{Version: 1}, 1},
		{"hello v2", &wire.HelloResp{Version: 2}, 2}, // may still send the retired introspection pairs
		{"pong", &wire.Pong{Seq: 1}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := transport.NewInproc()
			fakePeer(t, n, "old", func(c net.Conn) {
				wire.WriteMessage(c, tc.answer) //nolint:errcheck // the client's error is what is checked
			})
			p := NewPool(n)
			defer p.Close()

			_, err := p.Call("old", &wire.Ping{Seq: 1})
			var ve *VersionError
			if !errors.As(err, &ve) || ve.Peer != tc.peer || ve.Want != wire.MuxVersion {
				t.Fatalf("call = %v, want VersionError{Peer: %d, Want: %d}", err, tc.peer, wire.MuxVersion)
			}
			if _, err := p.Stream("old"); !errors.As(err, &ve) {
				t.Errorf("stream = %v, want VersionError", err)
			}
			if d := counter(t, p, "pool.dials"); d > 2 {
				t.Errorf("pool.dials = %d for one call and one stream, want <= 2", d)
			}
		})
	}
}

// The server serves no request outside mux framing: a connection whose
// first frame is a request, or a Hello below this build's version, is
// told so and closed, and the handler never sees it.
func TestServerRefusesConnectionsWithoutHello(t *testing.T) {
	for _, tc := range []struct {
		name  string
		first wire.Message
		check func(t *testing.T, resp wire.Message)
	}{
		{"ping", &wire.Ping{Seq: 1}, func(t *testing.T, resp wire.Message) {
			if em, ok := resp.(*wire.ErrorMsg); !ok || em.Code != wire.StatusUnsupported {
				t.Errorf("answer to a bare Ping = %v, want ErrorMsg{StatusUnsupported}", resp)
			}
		}},
		{"hello v1", &wire.HelloReq{MaxVersion: 1, MaxSegment: wire.DefaultMuxSegment}, func(t *testing.T, resp wire.Message) {
			if hr, ok := resp.(*wire.HelloResp); !ok || hr.Version != 0 {
				t.Errorf("answer to a version-1 Hello = %v, want HelloResp{Version: 0}", resp)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var handled atomic.Int64
			n, addr, _ := startPongServer(t, HandlerFunc(func(m wire.Message) (wire.Message, error) {
				handled.Add(1)
				return (&pongHandler{}).Handle(m)
			}))
			c, err := n.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := wire.WriteMessage(c, tc.first); err != nil {
				t.Fatal(err)
			}
			resp, err := wire.ReadMessage(c)
			if err != nil {
				t.Fatalf("no answer to the first frame: %v", err)
			}
			tc.check(t, resp)
			// A second request on the refused connection goes nowhere.
			wire.WriteMessage(c, &wire.Ping{Seq: 2})           //nolint:errcheck // the peer may already have hung up
			c.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
			if m, err := wire.ReadMessage(c); err == nil {
				t.Errorf("refused connection answered a second frame with %v", m)
			} else if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Error("refused connection was left open")
			}
			if got := handled.Load(); got != 0 {
				t.Errorf("handler saw %d requests, want 0", got)
			}
		})
	}
}

// A panicking handler must produce a StatusInternal error response and
// leave the shared connection serving. Before the recover was added, a
// panic killed the connection goroutine with no response.
func TestServerRecoversHandlerPanic(t *testing.T) {
	t.Run("mux", func(t *testing.T) {
		n, addr, _ := startPongServer(t, &pongHandler{panicSeq: 666})
		p := NewPool(n)
		defer p.Close()

		if _, err := p.Call(addr, &wire.Ping{Seq: 1}); err != nil {
			t.Fatalf("warmup call: %v", err)
		}
		_, err := p.Call(addr, &wire.Ping{Seq: 666})
		re, ok := err.(*RemoteError)
		if !ok || re.Code != wire.StatusInternal {
			t.Fatalf("panic call: err = %v, want StatusInternal RemoteError", err)
		}
		if _, err := p.Call(addr, &wire.Ping{Seq: 2}); err != nil {
			t.Fatalf("call after panic: %v", err)
		}
		// The connection must have survived the panic: no redial
		// beyond the lazily-dialed shared set.
		if d := counter(t, p, "pool.dials"); d > MuxConnsPerAddr {
			t.Errorf("pool.dials = %d, want <= %d (conn should survive the panic)", d, MuxConnsPerAddr)
		}
	})
}

// Streams over mux keep the pipelined request-order contract, and
// Release with responses still pending must not poison the shared
// connection for subsequent callers.
func TestStreamOverMux(t *testing.T) {
	n, addr, _ := startPongServer(t, &pongHandler{})
	p := NewPool(n)
	defer p.Close()

	s, err := p.Stream(addr)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := s.Send(&wire.Ping{Seq: seq}); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
	}
	for seq := uint64(1); seq <= 3; seq++ {
		resp, err := s.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", seq, err)
		}
		if resp.(*wire.Pong).Seq != seq {
			t.Fatalf("recv %d got %v (order broken)", seq, resp)
		}
	}
	s.Release()

	// Abandon a stream mid-flight; the shared conn must stay healthy.
	s2, err := p.Stream(addr)
	if err != nil {
		t.Fatal(err)
	}
	s2.Send(&wire.Ping{Seq: 10}) //nolint:errcheck
	s2.Send(&wire.Ping{Seq: 11}) //nolint:errcheck
	s2.Release()

	if _, err := p.Call(addr, &wire.Ping{Seq: 12}); err != nil {
		t.Fatalf("call after abandoned stream: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Metrics().Gauge("pool.mux.streams").Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pool.mux.streams stuck at %d", p.Metrics().Gauge("pool.mux.streams").Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// Mux calls must transparently retry once on a fresh connection when the
// shared connection went stale across a server restart.
func TestMuxSurvivesServerRestart(t *testing.T) {
	n := transport.NewInproc()
	l, err := n.Listen("restart")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, &pongHandler{})
	srv.Start()

	p := NewPool(n)
	defer p.Close()
	if _, err := p.Call("restart", &wire.Ping{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	l2, err := n.Listen("restart")
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(l2, &pongHandler{})
	srv2.Start()
	defer srv2.Close()

	if _, err := p.Call("restart", &wire.Ping{Seq: 2}); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
	if c := counter(t, p, "pool.mux.handshakes"); c < 2 {
		t.Errorf("pool.mux.handshakes = %d, want >= 2 (re-handshake after restart)", c)
	}
}

// stallNet passes dials through, except that dial number stallAt waits
// until release is closed.
type stallNet struct {
	transport.Network
	stallAt int32
	dials   atomic.Int32
	stalled chan struct{} // closed once the stalled dial has begun
	release chan struct{}
}

func (s *stallNet) Dial(addr string) (net.Conn, error) {
	if s.dials.Add(1) == s.stallAt {
		close(s.stalled)
		<-s.release
	}
	return s.Network.Dial(addr)
}

// A dial that stalls on one shared-connection slot must not hold up calls
// that land on the other, live slot, nor the pool's Close: the dial, once
// it finishes, closes the connection it produced.
func TestMuxStalledDialBlocksOnlyItsSlot(t *testing.T) {
	n, addr, _ := startPongServer(t, &pongHandler{})
	sn := &stallNet{Network: n, stallAt: 2, stalled: make(chan struct{}), release: make(chan struct{})}
	p := NewPool(sn)
	defer p.Close()
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(sn.release) }) }
	defer release()

	if _, err := p.Call(addr, &wire.Ping{Seq: 1}); err != nil { // dials the first slot
		t.Fatal(err)
	}
	stalled := make(chan error, 1)
	go func() {
		_, err := p.Call(addr, &wire.Ping{Seq: 2}) // stalls dialing the second slot
		stalled <- err
	}()
	<-sn.stalled
	done := make(chan error, 1)
	go func() {
		_, err := p.Call(addr, &wire.Ping{Seq: 3}) // round robin: the live slot
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a call on the live slot waited behind another slot's stalled dial")
	}

	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close waited behind a stalled dial")
	}
	dialsAtClose := counter(t, p, "pool.mux.handshakes")
	release()
	select {
	case err := <-stalled:
		if err == nil {
			t.Error("the call whose dial finished after Close succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the stalled call never returned after Close")
	}
	if c := counter(t, p, "pool.mux.handshakes"); c != dialsAtClose+1 {
		t.Errorf("handshakes = %d, want the stalled dial's one more than %d", c, dialsAtClose)
	}
}
