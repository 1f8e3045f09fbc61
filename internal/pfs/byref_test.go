package pfs

// By-reference writes: a WriteReq sent out of a view of the caller's
// buffer puts the bytes of the inline encoding on the wire, whatever the
// view's geometry, the framing and the kind of connection; and no frame
// refers to the caller's buffer once the call that was given it returned.

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"dosas/internal/transport"
	"dosas/internal/wire"
)

// geom is a view's shape; at maps a view offset to its place in the
// buffer by arithmetic, not by walking pieces.
type geom struct{ first, piece, skip, n int }

func (g geom) at(i int) int {
	if i < g.first {
		return i
	}
	q := i - g.first
	return g.first + g.skip + q/g.piece*(g.piece+g.skip) + q%g.piece
}

// view builds a seeded buffer just large enough for the shape.
func (g geom) view(seed int64) strided {
	buf := make([]byte, g.at(g.n-1)+1)
	rand.New(rand.NewSource(seed)).Read(buf)
	return strided{buf: buf, first: g.first, piece: g.piece, skip: g.skip, n: g.n}
}

// writeFrames writes req in both framings to w: ordered, then mux cut at
// the smallest segment (so a segment holds several pieces and pieces
// straddle segments).
func writeFrames(t testing.TB, w io.Writer, req *wire.WriteReq, plain bool, st *wire.FrameStats) {
	t.Helper()
	if err := wire.WriteMessageOpts(w, req, wire.WriteOptions{Plain: plain, Stats: st}); err != nil {
		t.Fatal(err)
	}
	mw := wire.NewMuxWriter(w, wire.MinMuxSegment)
	mw.Plain, mw.Stats = plain, st
	sent := make(chan error, 1)
	mw.Enqueue(req, 7, func(err error) { sent <- err }) //nolint:errcheck // reported to done
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkRange checks view bytes [off, off+n) of v, whose shape is g: the
// pieces are the caller's own memory and concatenate to the contiguous
// gather, WriteRange writes the same, and the frames sent by reference
// equal the frames of that gather sent inline — with and without a tenant.
func checkRange(t testing.TB, g geom, v strided, off, n int) {
	t.Helper()
	want := make([]byte, n)
	for i := range want {
		want[i] = v.buf[g.at(off+i)]
	}
	var got []byte
	for _, p := range v.AppendRange(nil, int64(off), int64(n)) {
		if len(p) == 0 || &p[0] != &v.buf[g.at(off+len(got))] {
			t.Fatalf("piece at view offset %d is empty or not the caller's memory", off+len(got))
		}
		got = append(got, p...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("pieces of [%d, %d) of %+v differ from the contiguous gather", off, off+n, g)
	}
	var written bytes.Buffer
	if err := v.WriteRange(&written, int64(off), int64(n), nil); err != nil || !bytes.Equal(written.Bytes(), want) {
		t.Fatalf("WriteRange of [%d, %d) of %+v differs from the contiguous gather (%v)", off, off+n, g, err)
	}
	for _, tenant := range []string{"", "tenant-a"} {
		var inline, byRef bytes.Buffer
		writeFrames(t, &inline, &wire.WriteReq{Handle: 9, Offset: 77, Data: want, Tenant: tenant}, true, nil)
		writeFrames(t, &byRef, &wire.WriteReq{Handle: 9, Offset: 77, Payload: v.slice(off, n), Tenant: tenant}, false, nil)
		if !bytes.Equal(byRef.Bytes(), inline.Bytes()) {
			t.Fatalf("frames of [%d, %d) of %+v (tenant %q) sent by reference differ from the inline encoding", off, off+n, g, tenant)
		}
	}
}

// FuzzStridedRange: a random view × a random range of it. The seeds are
// the shapes striping makes: a partial first piece, width 1, 2 and 3, a
// tail shorter than a piece, ranges that start and end inside a piece, and
// bodies on both sides of the by-reference threshold.
func FuzzStridedRange(f *testing.F) {
	f.Add(uint16(1000), uint16(4096), uint8(2), uint32(40_000), uint32(0), uint32(40_000))
	f.Add(uint16(4096), uint16(4096), uint8(1), uint32(50_000), uint32(5000), uint32(33_333))
	f.Add(uint16(1), uint16(1536), uint8(3), uint32(20_000), uint32(1537), uint32(18_000))
	f.Add(uint16(700), uint16(1024), uint8(3), uint32(65_000), uint32(701), uint32(64_299))
	f.Add(uint16(512), uint16(512), uint8(2), uint32(16<<10), uint32(0), uint32(16<<10))
	f.Add(uint16(9), uint16(64), uint8(2), uint32(300), uint32(10), uint32(100))
	f.Add(uint16(5), uint16(8), uint8(2), uint32(29), uint32(29), uint32(0))
	f.Fuzz(func(t *testing.T, first, piece uint16, width uint8, n, off, cnt uint32) {
		g := geom{piece: 1 + int(piece)%8192, n: 1 + int(n)%(96<<10)}
		g.skip = int(width) % 4 * g.piece
		g.first = min(1+int(first)%g.piece, g.n)
		at := int(off) % (g.n + 1)
		checkRange(t, g, g.view(int64(n)), at, int(cnt)%(g.n-at+1))
	})
}

// connPair returns the two ends of one connection of the named kind; the
// first is the one to write to (for "shaped", the shaped end).
func connPair(t *testing.T, kind string) (w, r net.Conn) {
	t.Helper()
	var nw transport.Network
	addr := "sink"
	switch kind {
	case "tcp":
		nw, addr = transport.TCP{}, "127.0.0.1:0"
	case "inproc":
		nw = transport.NewInproc()
	case "shaped":
		nw = transport.NewShaped(transport.NewInproc(), 256<<20)
	}
	l, err := nw.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	r, err = nw.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	w, err = l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close(); r.Close() })
	return w, r
}

// A TCP connection takes a by-reference body as vectored writes, any other
// writer as consecutive Writes; both receive the bytes of the inline
// encoding, and neither stages the body through a frame buffer.
func TestByRefWritersReceiveIdenticalBytes(t *testing.T) {
	g := geom{first: 1000, piece: 4096, skip: 2 * 4096, n: 300_000}
	v := g.view(11)
	req := func(byRef bool) *wire.WriteReq {
		if byRef {
			return &wire.WriteReq{Handle: 3, Offset: 1 << 33, Payload: v, Tenant: "t"}
		}
		return &wire.WriteReq{Handle: 3, Offset: 1 << 33, Data: gather(v), Tenant: "t"}
	}
	var inline bytes.Buffer
	writeFrames(t, &inline, req(false), true, nil)
	for _, kind := range []string{"tcp", "inproc", "shaped"} {
		t.Run(kind, func(t *testing.T) {
			w, r := connPair(t, kind)
			got := make(chan []byte, 1)
			go func() {
				b, _ := io.ReadAll(r)
				got <- b
			}()
			var st wire.FrameStats
			writeFrames(t, w, req(true), false, &st)
			w.Close()
			if b := <-got; !bytes.Equal(b, inline.Bytes()) {
				t.Fatalf("connection received %d bytes that differ from the %d of the inline encoding", len(b), inline.Len())
			}
			segments := int64((inline.Len()/2 + wire.MinMuxSegment - 1) / wire.MinMuxSegment)
			if c, wv := st.CopiedBytes.Load(), st.WritevCalls.Load(); c != 0 || wv < segments || wv > segments+2 {
				t.Errorf("copied_bytes = %d, writev_calls = %d; want 0 and one a segment (~%d) plus the ordered frame's", c, wv, segments)
			}
		})
	}
	// Below the threshold the encoder stages the body, and says so.
	var st wire.FrameStats
	small := &wire.WriteReq{Handle: 3, Payload: v.slice(500, 4096)}
	writeFrames(t, io.Discard, small, false, &st)
	if c, wv := st.CopiedBytes.Load(), st.WritevCalls.Load(); c != 2*4096 || wv != 0 {
		t.Errorf("4 KiB body: copied_bytes = %d, writev_calls = %d; want %d and 0", c, wv, 2*4096)
	}
}

// aliasWatch is a caller's buffer under observation: connections of a
// spyNet report every Write of its memory, and whether the call that was
// given the buffer had returned by then.
type aliasWatch struct {
	buf      []byte
	returned atomic.Bool  // set by the test when the call returns
	late     atomic.Int32 // Writes of buf's memory seen after that
	seen     atomic.Int64 // bytes of buf's memory written

	// gate, when non-nil, holds every Write of buf's memory until it is
	// closed — a link that stalls mid-frame; stalled is closed at the first.
	gate    chan struct{}
	stalled chan struct{}
	once    sync.Once
	// pace delays every Write of buf's memory: a slow link.
	pace time.Duration
}

func watch(buf []byte) *aliasWatch { return &aliasWatch{buf: buf, stalled: make(chan struct{})} }

func (a *aliasWatch) holds(p []byte) bool {
	if len(p) == 0 {
		return false
	}
	lo, at := uintptr(unsafe.Pointer(&a.buf[0])), uintptr(unsafe.Pointer(&p[0]))
	return at >= lo && at < lo+uintptr(len(a.buf))
}

// done marks the call as returned and scribbles over the buffer, which the
// race detector reports if a writer is still reading it.
func (a *aliasWatch) done(t *testing.T) {
	t.Helper()
	a.returned.Store(true)
	for i := range a.buf {
		a.buf[i] = 0xEE
	}
	if n := a.late.Load(); n != 0 {
		t.Errorf("%d writes of the caller's buffer after the call returned", n)
	}
}

// spyNet dials connections that report to the watches. failAddr's
// connections break once failAfter watched bytes were written to them.
type spyNet struct {
	transport.Network
	watches   []*aliasWatch
	failAddr  string
	failAfter int64

	mu    sync.Mutex
	conns []*spyConn
}

func (s *spyNet) Dial(addr string) (net.Conn, error) {
	c, err := s.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	sc := &spyConn{Conn: c, net: s, fail: addr == s.failAddr}
	s.mu.Lock()
	s.conns = append(s.conns, sc)
	s.mu.Unlock()
	return sc, nil
}

// kill closes every connection dialed so far, as a peer's death does.
func (s *spyNet) kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		c.Conn.Close()
	}
}

type spyConn struct {
	net.Conn
	net     *spyNet
	fail    bool
	watched atomic.Int64
}

var errLinkDown = errors.New("spy: link down")

func (c *spyConn) Write(p []byte) (int, error) {
	for _, a := range c.net.watches {
		if !a.holds(p) {
			continue
		}
		if a.gate != nil {
			a.once.Do(func() { close(a.stalled) })
			<-a.gate
		}
		time.Sleep(a.pace)
		if a.returned.Load() {
			a.late.Add(1)
		}
		a.seen.Add(int64(len(p)))
		if c.fail && c.watched.Add(int64(len(p))) > c.net.failAfter {
			c.Conn.Close()
			return 0, errLinkDown
		}
	}
	return c.Conn.Write(p) // reads p: a scribbling caller races with this
}

// spyNode is a data node on a spyNet with its handler replaced.
func spyNode(t *testing.T, sn *spyNet, h Handler) *Pool {
	t.Helper()
	l, err := sn.Listen("data-spy")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, h)
	srv.Start()
	t.Cleanup(srv.Close)
	p := NewPool(sn)
	t.Cleanup(p.Close)
	return p
}

// storing returns a handler that keeps a copy of what each handle was
// written, after fn had its say on the request.
func storing(fn func(*wire.WriteReq) (wire.Message, error)) (Handler, func(handle uint64) []byte) {
	var mu sync.Mutex
	stored := map[uint64][]byte{}
	h := HandlerFunc(func(m wire.Message) (wire.Message, error) {
		req, ok := m.(*wire.WriteReq)
		if !ok {
			return nil, ErrUnsupported
		}
		if fn != nil {
			if resp, err := fn(req); resp != nil || err != nil {
				return resp, err
			}
		}
		mu.Lock()
		defer mu.Unlock()
		b := stored[req.Handle]
		if end := int(req.Offset) + len(req.Data); end > len(b) {
			b = append(b, make([]byte, end-len(b))...)
		}
		copy(b[req.Offset:], req.Data)
		stored[req.Handle] = b
		return &wire.WriteResp{N: uint32(len(req.Data))}, nil
	})
	return h, func(handle uint64) []byte {
		mu.Lock()
		defer mu.Unlock()
		return stored[handle]
	}
}

func seeded(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// shareConn makes the pool's next stream ride the mux connection its last
// but one did (streams alternate over the peer's connections).
func shareConn(t *testing.T, p *Pool) {
	t.Helper()
	for i := 1; i < MuxConnsPerAddr; i++ {
		s, err := p.Stream("data-spy")
		if err != nil {
			t.Fatal(err)
		}
		s.Release()
	}
}

// A connection stalls in the middle of caller A's frame with caller B's
// frames queued behind it, and is then killed. B learns of the failure
// from the connection's reader at once, but its frames are still with the
// writer, which is still inside a Write of A's memory: B's call may not
// return — even through its retry on a fresh connection, which succeeds —
// until the writer has failed them.
func TestByRefLifetimeStalledConnKilled(t *testing.T) {
	a, b := watch(seeded(1<<20, 1)), watch(seeded(1<<20, 2))
	a.gate = make(chan struct{})
	wantB := bytes.Clone(b.buf)
	sn := &spyNet{Network: transport.NewInproc(), watches: []*aliasWatch{a, b}}
	h, stored := storing(nil)
	p := spyNode(t, sn, h)

	type result struct {
		n   int
		err error
	}
	resA, resB := make(chan result, 1), make(chan result, 1)
	go func() {
		n, err := p.WriteWindowed("data-spy", 1, a.buf, 0, 4, 256<<10)
		resA <- result{n, err}
	}()
	<-a.stalled
	shareConn(t, p)
	go func() {
		n, err := p.WriteWindowed("data-spy", 2, b.buf, 0, 4, 256<<10)
		resB <- result{n, err}
	}()
	for p.Metrics().Gauge("pool.mux.queue.bulk").Value() < 5 { // A's one and B's window of four
		time.Sleep(time.Millisecond)
	}
	sn.kill()
	select {
	case r := <-resB:
		t.Fatalf("B returned (%d, %v) while its frames were queued behind a Write in progress", r.n, r.err)
	case <-time.After(100 * time.Millisecond):
	}
	close(a.gate)
	if r := <-resA; r.err == nil {
		t.Error("A's write on the killed connection succeeded")
	}
	a.done(t)
	if r := <-resB; r.err != nil || r.n != len(wantB) {
		t.Errorf("B's write = (%d, %v), want it retried on a fresh connection", r.n, r.err)
	}
	b.done(t)
	if !bytes.Equal(stored(2), wantB) {
		t.Error("what the server stored for B is not what B wrote")
	}
}

// A short acknowledgement fails the write with requests of its window
// still in flight.
func TestByRefLifetimeShortAck(t *testing.T) {
	a := watch(seeded(2<<20, 3))
	a.pace = 200 * time.Microsecond
	sn := &spyNet{Network: transport.NewInproc(), watches: []*aliasWatch{a}}
	h, _ := storing(func(req *wire.WriteReq) (wire.Message, error) {
		if req.Offset == 0 {
			return &wire.WriteResp{N: uint32(len(req.Data)) - 1}, nil
		}
		return nil, nil
	})
	p := spyNode(t, sn, h)
	n, err := p.WriteWindowed("data-spy", 1, a.buf, 0, 4, 128<<10)
	a.done(t)
	if err == nil || n != 0 {
		t.Fatalf("WriteWindowed = (%d, %v), want the short acknowledgement's error", n, err)
	}
}

// The server refuses caller B's first request while the rest of B's window
// is queued behind caller A's bulk on a slow connection they share. B
// returns the remote error once none of its frames is left with the
// writer; A is not disturbed.
func TestByRefLifetimeRemoteErrorBehindBulk(t *testing.T) {
	a, b := watch(seeded(2<<20, 4)), watch(seeded(1<<20, 5))
	a.pace, b.pace = 300*time.Microsecond, 300*time.Microsecond
	wantA := bytes.Clone(a.buf)
	sn := &spyNet{Network: transport.NewInproc(), watches: []*aliasWatch{a, b}}
	h, stored := storing(func(req *wire.WriteReq) (wire.Message, error) {
		if req.Handle == 2 {
			return nil, ErrInvalid
		}
		return nil, nil
	})
	p := spyNode(t, sn, h)
	errA := make(chan error, 1)
	go func() {
		_, err := p.WriteWindowed("data-spy", 1, a.buf, 0, 4, 256<<10)
		errA <- err
	}()
	for a.seen.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	shareConn(t, p)
	_, err := p.WriteWindowed("data-spy", 2, b.buf, 0, 4, 128<<10)
	b.done(t)
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != wire.StatusInvalid {
		t.Fatalf("B's write = %v, want the server's refusal", err)
	}
	if err := <-errA; err != nil {
		t.Fatalf("A's write: %v", err)
	}
	a.done(t)
	if !bytes.Equal(stored(1), wantA) {
		t.Error("what the server stored for A is not what A wrote")
	}
}

// One buffer feeds all three replicas of every run, read-only and at once.
// When one replica's connection breaks mid-frame WriteAt fails, and what
// the buffer holds afterwards is nobody's business: the surviving replicas
// stored what it held during the call.
func TestByRefThreeReplicasShareOneBuffer(t *testing.T) {
	for _, failAddr := range []string{"", "data-1"} {
		t.Run("fail="+failAddr, func(t *testing.T) {
			data := watch(seeded(700_000, 6))
			want := bytes.Clone(data.buf)
			sn := &spyNet{watches: []*aliasWatch{data}, failAddr: failAddr, failAfter: 100_000}
			tc := startClusterWith(t, clusterOpts{nData: 3,
				net: func(n transport.Network) transport.Network { sn.Network = n; return sn }})
			f, err := tc.client.CreateReplicated("rep/one-buffer", 4096, 3, 3)
			if err != nil {
				t.Fatal(err)
			}
			const off = 4096 + 1234
			_, err = f.WriteAt(data.buf, off)
			data.done(t)
			if (err != nil) != (failAddr != "") {
				t.Fatalf("WriteAt = %v", err)
			}
			for _, run := range Runs(f.Layout(), off, uint64(len(want))) {
				local := gather(run.view(f.Layout(), want, off))
				for r := 0; r < 3; r++ {
					server := ReplicaServer(f.Layout(), run.Slot, r)
					if failAddr != "" && server == 1 {
						continue
					}
					got := make([]byte, len(local))
					if _, err := tc.datas[server].Store().ReadAt(ReplicaHandle(f.Handle(), r), got, run.LocalOffset); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, local) {
						t.Errorf("slot %d replica %d on server %d stored other bytes than the buffer held during WriteAt", run.Slot, r, server)
					}
				}
			}
		})
	}
}

// The pool counts how its request frames moved their bodies: a bulk write
// is no copied byte and one vectored write a segment, a small one is
// staged through the frame buffer.
func TestPoolWireCounters(t *testing.T) {
	tc := startClusterWith(t, clusterOpts{nData: 2, tcp: true})
	f, err := tc.client.Create("wire/counters", 64<<10, 2)
	if err != nil {
		t.Fatal(err)
	}
	counters := func() (copied, writev int64) {
		reg := tc.client.pool.Metrics()
		return reg.Counter("pool.wire.copied_bytes").Value(), reg.Counter("pool.wire.writev_calls").Value()
	}
	if _, err := f.WriteAt(seeded(4<<20, 7), 0); err != nil {
		t.Fatal(err)
	}
	copied, writev := counters()
	if copied != 0 || writev != 16 {
		t.Errorf("4 MiB write: copied_bytes = %d, writev_calls = %d; want 0 and 16 (two 2 MiB requests of eight segments)", copied, writev)
	}
	if _, err := f.WriteAt(seeded(4<<10, 8), 12345); err != nil {
		t.Fatal(err)
	}
	if c, wv := counters(); c != copied+4<<10 || wv != writev {
		t.Errorf("4 KiB write: copied_bytes %d → %d, writev_calls %d → %d; want +4096 and no more", copied, c, writev, wv)
	}
}
