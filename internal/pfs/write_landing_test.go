package pfs

// Landed writes: a WriteReq body that overwrites resident bytes of existing
// extent files goes from the connection into their pages; every other body
// takes the buffered path. Whatever happens to a landing — its extent cut
// under it, its connection gone mid-body, a busy gate, cold pages — the
// write either lands whole and is acknowledged, or fails typed, and the
// fd-cache references and data.inflight it took come back. A landing never
// holds a gate slot.

import (
	"bytes"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"dosas/internal/ioqueue"
	"dosas/internal/transport"
	"dosas/internal/wire"
)

// landNode is one data server over an extent store, with an admission gate.
type landNode struct {
	es   *ExtentStore
	ds   *DataServer
	nw   transport.Network
	addr string
}

func startLandNode(t *testing.T, tcp bool, ec ExtentConfig, qos QoSConfig) *landNode {
	t.Helper()
	if ec.Dir == "" {
		ec.Dir = t.TempDir()
	}
	es, err := NewExtentStore(ec)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataServer(DataConfig{Store: es, QoS: &qos})
	if err != nil {
		t.Fatal(err)
	}
	if tcp {
		return serveData(t, es, ds, transport.TCP{}, "127.0.0.1:0")
	}
	return serveData(t, es, ds, transport.NewInproc(), "data-0")
}

// serveData serves ds, over es, on nw at addr until the test ends.
func serveData(t *testing.T, es *ExtentStore, ds *DataServer, nw transport.Network, addr string) *landNode {
	t.Helper()
	l, err := nw.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, ds)
	srv.SetFrameStats(ds.WireStats())
	srv.Start()
	t.Cleanup(func() {
		srv.Close()
		ds.Close()
		es.Close()
	})
	return &landNode{es: es, ds: ds, nw: nw, addr: l.Addr()}
}

// fdRefs sums the references held on the cache's live entries.
func fdRefs(c *fdCache) (n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		n += e.refs
	}
	return n
}

// quiescent waits until ds holds nothing for any request: data.inflight is
// 0, every gate slot is free, and no fd-cache reference is taken.
func quiescent(t *testing.T, ds *DataServer) {
	t.Helper()
	waitFor(t, "data.inflight, gate slots and fd-cache references back to zero", func() bool {
		return ds.m.inflight.Value() == 0 && (ds.gate == nil || ioTaken(ds.gate) == 0) && fdRefs(ds.extents.fds) == 0
	})
}

// ioTaken reads how many of g's I/O slots are taken.
func ioTaken(g *QoSGate) int {
	io, _ := taken(g)
	return io
}

// rawConn is a connection past its handshake on which a test sends
// hand-cut mux segments and reads mux frames back.
type rawConn struct {
	net.Conn
	mr *wire.MuxReader
}

func dialRaw(t *testing.T, nw transport.Network, addr string) *rawConn {
	t.Helper()
	c, err := nw.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := wire.WriteMessage(c, &wire.HelloReq{MaxVersion: wire.MuxVersion, MaxSegment: wire.DefaultMuxSegment}); err != nil {
		t.Fatal(err)
	}
	if m, err := wire.ReadMessage(c); err != nil {
		t.Fatal(err)
	} else if hr, ok := m.(*wire.HelloResp); !ok || hr.Version != wire.MuxVersion {
		t.Fatalf("handshake answered with %v", m)
	}
	return &rawConn{Conn: c, mr: wire.NewMuxReader(c)}
}

func (rc *rawConn) send(t *testing.T, b []byte) {
	t.Helper()
	if _, err := rc.Write(b); err != nil {
		t.Fatal(err)
	}
}

// recv reads the next frame; the test expects it on stream.
func (rc *rawConn) recv(t *testing.T, stream uint32) wire.Message {
	t.Helper()
	f, err := rc.mr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if f.Stream != stream {
		t.Fatalf("answer on stream %d, want %d", f.Stream, stream)
	}
	wire.Own(f.Msg)
	wire.PutBuf(f.Buf)
	return f.Msg
}

// ping checks the connection is still in step: a Ping is answered.
func (rc *rawConn) ping(t *testing.T, stream uint32) {
	t.Helper()
	rc.send(t, appendSegment(nil, wire.MsgPing, stream, []byte{9, 0, 0, 0, 0, 0, 0, 0}, false, -1))
	if m := rc.recv(t, stream); m.Type() != wire.MsgPong {
		t.Fatalf("Ping answered with %v", m)
	}
}

// writePayload encodes a WriteReq's payload.
func writePayload(m *wire.WriteReq) []byte {
	var e wire.Codec
	m.Fields(&e)
	return e.Buf()
}

// landed and copied read a data server's receive counters.
func landed(ds *DataServer) int64 { return ds.wireStats.LandedBytes.Load() }
func copied(ds *DataServer) int64 { return ds.wireStats.RecvCopiedBytes.Load() }

// A write cut under its landing — by the store's Truncate, or behind the
// store's back with its extent file truncated (then a socket read into a
// page past the file's end fails with EFAULT, and a copy into it, from the
// reader's buffer or an in-process pipe, faults) — fails with ErrWriteCut
// after the rest of its body is discarded: the connection stays in step,
// the process does not die of SIGBUS, and everything the landing took
// comes back. The store's cut falls inside the page the next segment
// starts in, and nothing lands past it: grown again, the stream reads
// zeros there.
func TestWriteLandingTruncatedUnder(t *testing.T) {
	const size, first = 1 << 20, 300 << 10
	const landedFirst = first - 20 // the first segment's body bytes
	for _, tc := range []struct {
		name     string
		tcp      bool
		cut      int64
		external bool
	}{
		{"store truncate", false, landedFirst + 100, false},
		{"extent file cut, TCP", true, 128 << 10, true},
		{"extent file cut, in-process pipe", false, 128 << 10, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := startLandNode(t, tc.tcp, ExtentConfig{}, QoSConfig{})
			old := seeded(size, 1)
			if _, err := n.es.WriteAt(1, old, 0); err != nil {
				t.Fatal(err)
			}
			data := seeded(size, 2)
			p := writePayload(&wire.WriteReq{Handle: 1, Data: data, Tenant: "t"})
			rc := dialRaw(t, n.nw, n.addr)
			rc.send(t, appendSegment(nil, wire.MsgWriteReq, 1, p[:first], true, len(p)))
			waitFor(t, "the first segment to land", func() bool { return landed(n.ds) == landedFirst })
			var err error
			if tc.external {
				err = os.Truncate(n.es.extentPath(1, 0), tc.cut)
			} else {
				err = n.es.Truncate(1, uint64(tc.cut))
			}
			if err != nil {
				t.Fatal(err)
			}
			rc.send(t, appendSegment(nil, wire.MsgWriteReq, 1, p[first:], false, -1))
			em, ok := rc.recv(t, 1).(*wire.ErrorMsg)
			if !ok || em.Code != wire.StatusInvalid || !strings.Contains(em.Detail, ErrWriteCut.Error()) {
				t.Fatalf("write cut under its landing answered %+v, want %v", em, ErrWriteCut)
			}
			rc.ping(t, 2)
			if l := landed(n.ds); l != landedFirst {
				t.Fatalf("landed_bytes = %d, want the first segment's %d", l, landedFirst)
			}
			quiescent(t, n.ds)
			fi, err := os.Stat(n.es.extentPath(1, 0))
			if err != nil || fi.Size() != tc.cut {
				t.Fatalf("extent file after the cut: %v, %v; want %d bytes", fi, err, tc.cut)
			}
			want := append(bytes.Clone(data[:min(landedFirst, tc.cut)]), old[min(landedFirst, tc.cut):tc.cut]...)
			if !tc.external {
				if err := n.es.Truncate(1, size); err != nil {
					t.Fatal(err)
				}
				want = append(want, make([]byte, size-tc.cut)...)
			}
			got := make([]byte, len(want))
			if _, err := n.es.ReadAt(1, got, 0); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("stream after the cut differs from the landed prefix, then the old bytes to the cut, "+
					"then zeros at %d (%v)", firstDiff(got, want), err)
			}
		})
	}
}

// A connection that dies mid-body — hung up, or refused for a malformed
// segment — aborts its landing once, and the fd-cache reference and
// data.inflight the grant took come back. The landing holds no gate slot.
func TestWriteLandingAbortedMidBody(t *testing.T) {
	const size = 1 << 20
	for _, tc := range []struct {
		name string
		end  func(rc *rawConn)
	}{
		{"hang-up", func(rc *rawConn) { rc.Close() }},
		{"protocol error", func(rc *rawConn) {
			rc.Write(appendSegment(nil, wire.MsgReadResp, 1, make([]byte, 64), false, -1)) //nolint:errcheck // the server hangs up
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := startLandNode(t, false, ExtentConfig{}, QoSConfig{Slots: 2})
			if _, err := n.es.WriteAt(1, seeded(size, 1), 0); err != nil {
				t.Fatal(err)
			}
			p := writePayload(&wire.WriteReq{Handle: 1, Data: seeded(size, 2)})
			rc := dialRaw(t, n.nw, n.addr)
			rc.send(t, appendSegment(nil, wire.MsgWriteReq, 1, p[:200<<10], true, len(p)))
			waitFor(t, "the first segment to land", func() bool { return landed(n.ds) > 0 })
			if v := n.ds.m.inflight.Value(); v != 1 {
				t.Fatalf("data.inflight = %d while the body lands, want 1", v)
			}
			if ioTaken(n.ds.gate) != 0 || fdRefs(n.es.fds) != 1 {
				t.Fatalf("landing holds %d gate slots and %d fd-cache references, want 0 and 1",
					ioTaken(n.ds.gate), fdRefs(n.es.fds))
			}
			tc.end(rc)
			quiescent(t, n.ds)
		})
	}
}

// The read loop that fills a landing holds no gate slot, so delivering
// the landing cannot wait on writes queued at the gate behind it: with a
// landing begun and then every slot the gate gives out taken, 32 small
// writes sent on the same connection and then the landing's last segment,
// all 33 writes are answered while the slot stays taken.
func TestWriteLandingDeliveredBehindQueuedWrites(t *testing.T) {
	n := startLandNode(t, true, ExtentConfig{}, QoSConfig{Slots: 2})
	const size = 1 << 20
	if _, err := n.es.WriteAt(1, seeded(size, 1), 0); err != nil {
		t.Fatal(err)
	}
	data := seeded(size, 2)
	p := writePayload(&wire.WriteReq{Handle: 1, Data: data})
	rc := dialRaw(t, n.nw, n.addr)
	rc.send(t, appendSegment(nil, wire.MsgWriteReq, 1, p[:200<<10], true, len(p)))
	waitFor(t, "the first segment to land", func() bool { return landed(n.ds) > 0 })
	// One of the gate's two slots; queued writes pass through the other
	// one at a time, each handing it to the next.
	hold := n.ds.gate.Enqueue(ioqueue.Normal, "warm", 1)
	if !hold.Wait() {
		t.Fatal("warm ticket not admitted")
	}
	defer hold.Release()
	for i := 0; i < muxServerConcurrency; i++ {
		small := writePayload(&wire.WriteReq{Handle: 2, Offset: uint64(i), Data: []byte{byte(i)}})
		rc.send(t, appendSegment(nil, wire.MsgWriteReq, uint32(2+i), small, false, -1))
	}
	rc.send(t, appendSegment(nil, wire.MsgWriteReq, 1, p[200<<10:], false, -1))
	if err := rc.SetReadDeadline(time.Now().Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for answered := 0; answered < muxServerConcurrency+1; answered++ {
		f, err := rc.mr.Read()
		if err != nil {
			t.Fatalf("%d of %d writes answered: %v", answered, muxServerConcurrency+1, err)
		}
		if _, ok := f.Msg.(*wire.WriteResp); !ok {
			t.Fatalf("write on stream %d answered %v", f.Stream, f.Msg)
		}
		wire.PutBuf(f.Buf)
	}
	got := make([]byte, size)
	if _, err := n.es.ReadAt(1, got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("landed write reads back wrong (%v)", err)
	}
	if l := landed(n.ds); l != size {
		t.Errorf("landed_bytes = %d, want %d", l, size)
	}
	hold.Release()
	quiescent(t, n.ds)
}

// recordingStore records the handles WriteAt is called for, in order.
type recordingStore struct {
	*ExtentStore
	mu    sync.Mutex
	order []uint64
}

func (s *recordingStore) WriteAt(handle uint64, p []byte, off uint64) (int, error) {
	s.mu.Lock()
	s.order = append(s.order, handle)
	s.mu.Unlock()
	return s.ExtentStore.WriteAt(handle, p, off)
}

// With the gate's slots held, a write that could land does not: its body
// is assembled in a frame buffer and the write queues at the gate, and
// queued writes are admitted in WDRR order — weight-2 tenant a gets two of
// the first three grants, though arrivals alternate. Once the gate is idle
// again, the same write lands.
func TestWriteLandingBusyGateQueues(t *testing.T) {
	const op = 64 << 10
	n := startLandNode(t, false, ExtentConfig{}, QoSConfig{Slots: 2, Quantum: op, Weights: map[string]float64{"a": 2, "b": 1}})
	rec := &recordingStore{ExtentStore: n.es}
	n.ds.store = rec // records pwrites, in admission order: one slot serializes them
	for h := uint64(1); h <= 2; h++ {
		if _, err := n.es.WriteAt(h, seeded(4*op, int64(h)), 0); err != nil {
			t.Fatal(err)
		}
	}
	p := NewPool(n.nw)
	defer p.Close()
	// Both slots taken. Releasing the second lets queued writes through one
	// at a time, each handing the slot to the next.
	hold, serial := n.ds.gate.Enqueue(ioqueue.Normal, "warm", 1), n.ds.gate.Enqueue(ioqueue.Normal, "warm", 1)
	if !hold.Wait() || !serial.Wait() {
		t.Fatal("warm tickets not admitted")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		tenant, h := "a", uint64(1)
		if i%2 == 1 {
			tenant, h = "b", 2
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := &wire.WriteReq{Handle: h, Offset: uint64(i/2) * op, Data: seeded(op, int64(10+i)), Tenant: tenant}
			if _, err := p.Call(n.addr, req); err != nil {
				t.Error(err)
			}
		}()
		waitFor(t, "the write to queue", func() bool { return n.ds.gate.Stats().NormalLen == i+1 })
	}
	if l := landed(n.ds); l != 0 {
		t.Fatalf("landed_bytes = %d behind a busy gate, want 0", l)
	}
	serial.Release()
	wg.Wait()
	hold.Release()
	if c := copied(n.ds); c != 8*op {
		t.Errorf("recv_copied_bytes = %d, want %d", c, 8*op)
	}
	firstA := 0
	for _, h := range rec.order[:3] {
		if h == 1 {
			firstA++
		}
	}
	if len(rec.order) != 8 || firstA != 2 {
		t.Errorf("pwrites in order %v, want 2×a (handle 1) + 1×b in the first 3 of 8", rec.order)
	}
	if _, err := p.Call(n.addr, &wire.WriteReq{Handle: 1, Data: seeded(op, 30)}); err != nil {
		t.Fatal(err)
	}
	if l := landed(n.ds); l != op || len(rec.order) != 8 {
		t.Errorf("on an idle gate: landed_bytes = %d and %d pwrites; want %d and 8", l, len(rec.order), op)
	}
	quiescent(t, n.ds)
}

// A width-2 4 MiB overwrite of a resident file lands all 4 MiB across both
// servers and copies none; the extending write that made the file lands
// nothing and is counted as copied on receive. The servers mirror both
// counters into their registries.
func TestWriteLandingServerCounters(t *testing.T) {
	tc := startClusterWith(t, clusterOpts{nData: 2, tcp: true, store: extentStores(t)})
	f, err := tc.client.Create("wire/landed-write", 64<<10, 2)
	if err != nil {
		t.Fatal(err)
	}
	counters := func() (landed, copied int64) {
		for _, ds := range tc.datas {
			ds.SyncWireStats()
			landed += ds.Metrics().Counter("wire.landed_bytes").Value()
			copied += ds.Metrics().Counter("wire.recv_copied_bytes").Value()
		}
		return landed, copied
	}
	const size = 4 << 20
	if _, err := f.WriteAt(seeded(size, 20), 0); err != nil {
		t.Fatal(err)
	}
	if l, c := counters(); l != 0 || c != size {
		t.Fatalf("extending 4 MiB write: landed_bytes %d, recv_copied_bytes %d; want 0 and %d", l, c, size)
	}
	data := seeded(size, 21)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if l, c := counters(); l != size || c != size {
		t.Fatalf("4 MiB overwrite: landed_bytes %d, recv_copied_bytes %d; want %d and %d (unchanged)", l, c, size, size)
	}
	got := make([]byte, size)
	if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("landed overwrite reads back wrong (%v)", err)
	}
}

// A landing across several extent files lands each part in its own file.
func TestWriteLandingAcrossExtents(t *testing.T) {
	const ext = 256 << 10
	n := startLandNode(t, false, ExtentConfig{ExtentSize: ext}, QoSConfig{})
	want := seeded(8*ext, 3)
	if _, err := n.es.WriteAt(7, want, 0); err != nil {
		t.Fatal(err)
	}
	p := NewPool(n.nw)
	defer p.Close()
	body := seeded(4*ext+1000, 4)
	off := ext/2 + 123
	if _, err := p.Call(n.addr, &wire.WriteReq{Handle: 7, Offset: uint64(off), Data: body}); err != nil {
		t.Fatal(err)
	}
	copy(want[off:], body)
	got := make([]byte, len(want))
	if _, err := n.es.ReadAt(7, got, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("write across 6 extents reads back wrong (%v, first difference at %d)", err, firstDiff(got, want))
	}
	if l := landed(n.ds); l != int64(len(body)) {
		t.Errorf("landed_bytes = %d, want %d", l, len(body))
	}
	quiescent(t, n.ds)
}

// An overwrite of pages that are not in the page cache does not land — a
// write fault on them would read them from the disk first — and takes the
// buffered path; the bytes are right either way.
func TestWriteLandingColdRangeFallsBack(t *testing.T) {
	n := startLandNode(t, false, ExtentConfig{}, QoSConfig{})
	const size = 1 << 20
	if _, err := n.es.WriteAt(1, seeded(size, 1), 0); err != nil {
		t.Fatal(err)
	}
	if !evict(t, n.es.extentPath(1, 0), true) {
		t.Skip("the kernel kept the extent's pages after POSIX_FADV_DONTNEED")
	}
	p := NewPool(n.nw)
	defer p.Close()
	data := seeded(size, 2)
	if _, err := p.Call(n.addr, &wire.WriteReq{Handle: 1, Data: data}); err != nil {
		t.Fatal(err)
	}
	if l, c := landed(n.ds), copied(n.ds); l != 0 || c != size {
		t.Fatalf("cold overwrite: landed_bytes %d, recv_copied_bytes %d; want 0 and %d", l, c, size)
	}
	got := make([]byte, size)
	if _, err := n.es.ReadAt(1, got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("cold overwrite reads back wrong (%v)", err)
	}
	quiescent(t, n.ds)
}

// On a Sync store a landed write fsyncs its extent file before it is
// acknowledged, as WriteAt does: once the store lets the file go, its pages
// are clean, so POSIX_FADV_DONTNEED drops every one, where it would keep
// dirty ones. A store reopened on the directory reads the write back.
func TestWriteLandingStoreSync(t *testing.T) {
	dir := t.TempDir()
	n := startLandNode(t, false, ExtentConfig{Dir: dir, Sync: true}, QoSConfig{})
	const size = 1 << 20
	if _, err := n.es.WriteAt(1, seeded(size, 1), 0); err != nil {
		t.Fatal(err)
	}
	p := NewPool(n.nw)
	defer p.Close()
	data := seeded(size, 2)
	if _, err := p.Call(n.addr, &wire.WriteReq{Handle: 1, Data: data}); err != nil {
		t.Fatal(err)
	}
	if l := landed(n.ds); l != size {
		t.Fatalf("landed_bytes = %d, want %d", l, size)
	}
	// DONTNEED keeps mapped pages: unmap the landing's mapping first.
	quiescent(t, n.ds)
	n.es.fds.invalidateHandle(1)
	if path := n.es.extentPath(1, 0); !evict(t, path, false) {
		if evict(t, path, true) {
			t.Fatal("the landed write left dirty pages: it was acknowledged before its extent was fsynced")
		}
		t.Skip("the kernel kept the extent's pages after POSIX_FADV_DONTNEED")
	}
	again, err := NewExtentStore(ExtentConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	got := make([]byte, size)
	if _, err := again.ReadAt(1, got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("reopened store reads the landed write back wrong (%v)", err)
	}
}

// A replicated overwrite lands on every replica, and every replica reads
// back the same bytes (a deep Verify compares them).
func TestWriteLandingReplicatedOverwrite(t *testing.T) {
	tc := startClusterWith(t, clusterOpts{nData: 3, store: extentStores(t)})
	f, err := tc.client.CreateReplicated("wl/replicated", 64<<10, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	const size = 3 << 20
	if _, err := f.WriteAt(seeded(size, 5), 0); err != nil {
		t.Fatal(err)
	}
	data := seeded(size, 6)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ds := range tc.datas {
		total += landed(ds)
	}
	if total != 2*size {
		t.Errorf("landed_bytes = %d across the servers, want %d (two replicas)", total, 2*size)
	}
	rep, err := tc.client.Verify("wl/replicated", true)
	if err != nil || !rep.OK() {
		t.Fatalf("deep verify after a landed overwrite: %v, %+v", err, rep)
	}
	got := make([]byte, size)
	if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("replicated overwrite reads back wrong (%v)", err)
	}
	for _, ds := range tc.datas {
		quiescent(t, ds)
	}
}

// The landing decision itself: below zeroCopyMin, past the stream's end,
// into a hole, or behind a busy gate, WriteDest declines without taking
// anything; a grant raises data.inflight until
// aborted and takes no gate slot.
func TestWriteDestDeclines(t *testing.T) {
	n := startLandNode(t, false, ExtentConfig{ExtentSize: 1 << 20}, QoSConfig{Slots: 2})
	if _, err := n.es.WriteAt(1, seeded(1<<20, 1), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.es.WriteAt(1, seeded(1<<20, 2), 2<<20); err != nil { // extent 1 is a hole
		t.Fatal(err)
	}
	// An extending write is declined from the size cache alone, before any
	// extent file is opened or mapped.
	if wl := n.ds.WriteDest(1, 2<<20+512<<10, 1<<20); wl != nil || n.es.MappedExtents() != 0 {
		t.Fatalf("extending write: landing %v, %d extents mapped; want none", wl, n.es.MappedExtents())
	}
	for name, c := range map[string]struct {
		handle, off uint64
		n           int
	}{
		"small":          {1, 0, zeroCopyMin - 1},
		"extending":      {1, 2<<20 + 512<<10, 1 << 20},
		"unknown stream": {9, 0, 1 << 20},
		"into a hole":    {1, 1 << 20, zeroCopyMin},
		"across a hole":  {1, 1<<20 - 4096, zeroCopyMin},
	} {
		if wl := n.ds.WriteDest(c.handle, c.off, c.n); wl != nil {
			t.Errorf("%s: WriteDest granted a landing", name)
			wl.Abort()
		}
	}
	wl := n.ds.WriteDest(1, 4096, zeroCopyMin)
	if wl == nil {
		t.Fatal("resident in-stream overwrite declined")
	}
	if v := n.ds.m.inflight.Value(); v != 1 || ioTaken(n.ds.gate) != 0 {
		t.Fatalf("a grant left data.inflight %d and %d gate slots taken, want 1 and 0", v, ioTaken(n.ds.gate))
	}
	wl.Abort()
	wl.Abort()
	quiescent(t, n.ds)
	// Both of the gate's slots taken.
	hold, hold2 := n.ds.gate.Enqueue(ioqueue.Normal, "warm", 1), n.ds.gate.Enqueue(ioqueue.Normal, "warm", 1)
	if !hold.Wait() || !hold2.Wait() {
		t.Fatal("warm tickets not admitted")
	}
	if wl := n.ds.WriteDest(1, 4096, zeroCopyMin); wl != nil {
		t.Error("WriteDest granted a landing behind a busy gate")
		wl.Abort()
	}
	hold.Release()
	hold2.Release()
	quiescent(t, n.ds)
}

// A node whose gate has one I/O slot grants a landing while nothing is
// admitted, and declines one while the slot is taken.
func TestWriteDestOneSlotGate(t *testing.T) {
	n := startLandNode(t, false, ExtentConfig{}, QoSConfig{Slots: 1})
	if _, err := n.es.WriteAt(1, seeded(1<<20, 1), 0); err != nil {
		t.Fatal(err)
	}
	wl := n.ds.WriteDest(1, 4096, zeroCopyMin)
	if wl == nil {
		t.Fatal("a one-slot gate with nothing admitted declined a landing")
	}
	wl.Abort()
	hold := n.ds.gate.Enqueue(ioqueue.Normal, "warm", 1)
	if !hold.Wait() {
		t.Fatal("warm ticket not admitted")
	}
	if wl := n.ds.WriteDest(1, 4096, zeroCopyMin); wl != nil {
		t.Error("WriteDest granted a landing behind a taken slot")
		wl.Abort()
	}
	hold.Release()
	quiescent(t, n.ds)
}

// A write that lands and one that does not store the same bytes, in
// random overlapping overwrites of a stream read back against a flat copy.
func TestWriteLandingMatchesBuffered(t *testing.T) {
	n := startLandNode(t, true, ExtentConfig{ExtentSize: 256 << 10}, QoSConfig{})
	const size = 2 << 20
	want := seeded(size, 1)
	if _, err := n.es.WriteAt(1, want, 0); err != nil {
		t.Fatal(err)
	}
	p := NewPool(n.nw)
	defer p.Close()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 40; i++ {
		ln := 1 + rng.Intn(300<<10)
		off := rng.Intn(size - ln)
		body := seeded(ln, int64(100+i))
		if _, err := p.Call(n.addr, &wire.WriteReq{Handle: 1, Offset: uint64(off), Data: body}); err != nil {
			t.Fatal(err)
		}
		copy(want[off:], body)
	}
	got := make([]byte, size)
	if _, err := n.es.ReadAt(1, got, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("stream differs from the flat copy at %d (%v)", firstDiff(got, want), err)
	}
	if landed(n.ds) == 0 || copied(n.ds) == 0 {
		t.Errorf("landed %d and copied %d bytes: the mix did not take both paths", landed(n.ds), copied(n.ds))
	}
	quiescent(t, n.ds)
}
