package pfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dosas/internal/ioqueue"
	"dosas/internal/tenant"
	"dosas/internal/transport"
	"dosas/internal/wire"
)

// TestQoSGateWeightedOrder pins the gate's admission order to WDRR: with
// the single slot held, queued tenants drain proportionally to their
// weights, not in arrival order.
func TestQoSGateWeightedOrder(t *testing.T) {
	g := NewQoSGate(QoSConfig{
		Slots:   1,
		Quantum: 4096,
		Weights: map[string]float64{"a": 2, "b": 1},
	})
	defer g.Close()

	// Occupy the only slot so everything below queues behind it.
	hold := g.Enqueue(ioqueue.Normal, "warm", 1)
	if !hold.Wait() {
		t.Fatal("warm ticket not admitted")
	}

	order := make(chan string, 8)
	var wg sync.WaitGroup
	enq := func(tenant string) {
		tk := g.Enqueue(ioqueue.Normal, tenant, 4096)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tk.Wait() {
				order <- tenant
				tk.Release()
			}
		}()
	}
	// Arrival order alternates so FIFO admission would yield a,b,a,b...
	for i := 0; i < 4; i++ {
		enq("a")
		enq("b")
	}
	hold.Release()
	wg.Wait()
	close(order)

	var got []string
	for tenant := range order {
		got = append(got, tenant)
	}
	if len(got) != 8 {
		t.Fatalf("granted %d tickets, want 8", len(got))
	}
	// First WDRR round: weight-2 "a" gets two grants per one of "b".
	firstA := 0
	for _, tenant := range got[:3] {
		if tenant == "a" {
			firstA++
		}
	}
	if firstA != 2 {
		t.Errorf("first round grants = %v, want 2×a + 1×b in the first 3", got[:3])
	}
}

// TestQoSGateCancelWhileQueued: a queued ticket withdrawn by Cancel must
// wake its waiter with false, consume no slot, and leave the gate
// serving later arrivals.
func TestQoSGateCancelWhileQueued(t *testing.T) {
	g := NewQoSGate(QoSConfig{Slots: 1})
	defer g.Close()

	hold := g.Enqueue(ioqueue.Normal, "warm", 1)
	if !hold.Wait() {
		t.Fatal("warm ticket not admitted")
	}
	victim := g.Enqueue(ioqueue.Normal, "a", 4096)
	if !g.Cancel(victim) {
		t.Fatal("Cancel of a queued ticket reported not found")
	}
	if victim.Wait() {
		t.Fatal("cancelled ticket was admitted")
	}
	victim.Release() // must be a harmless no-op without a slot

	// Cancelling again — or cancelling an already-granted ticket — is a
	// polite no-op.
	if g.Cancel(victim) {
		t.Error("second Cancel reported found")
	}
	if g.Cancel(hold) {
		t.Error("Cancel of a granted ticket reported found")
	}

	next := g.Enqueue(ioqueue.Normal, "b", 4096)
	hold.Release()
	if !next.Wait() {
		t.Fatal("ticket after a cancellation never admitted")
	}
	next.Release()
}

// TestQoSGateInlineAdmission pins the fast path's edges: with a slot of
// its pool free a ticket is admitted inside Enqueue (it has no queue id),
// anything else queues and is handed the next slot released, in drain
// order, a full pool holds up only its own classes, and a closed gate
// still fails open.
func TestQoSGateInlineAdmission(t *testing.T) {
	g := NewQoSGate(QoSConfig{Slots: 3})
	g.ServeActive(1)
	fill := func() []*Ticket {
		var held []*Ticket
		for i := 0; i < 3; i++ {
			tk := g.Enqueue(ioqueue.Normal, "t", 4096)
			if tk.id != 0 || !admitted(tk) {
				t.Fatalf("ticket %d with a slot free was not admitted by Enqueue", i)
			}
			held = append(held, tk)
		}
		return held
	}
	held := fill()
	// All I/O slots taken: normal and metadata tickets queue, however the
	// kernel core stands, and an active ticket still takes the free core.
	m, d := g.Enqueue(ioqueue.Meta, "t", 1), g.Enqueue(ioqueue.Normal, "t", 4096)
	a1 := g.Enqueue(ioqueue.Active, "t", 1<<20)
	if admitted(m) || admitted(d) {
		t.Fatal("a ticket was admitted past a full I/O pool")
	}
	if a1.id != 0 || !admitted(a1) {
		t.Fatal("a full I/O pool held up an active ticket")
	}
	// With the core taken and an active ticket queued, the I/O pool's
	// classes are admitted inline again as soon as a slot is free.
	a2 := g.Enqueue(ioqueue.Active, "t", 1<<20)
	held[0].Release()
	if !admitted(d) || admitted(m) {
		t.Fatal("the released slot did not go to the queued normal ticket first")
	}
	held[1].Release()
	if !admitted(m) {
		t.Fatal("the released slot did not go to the queued metadata ticket")
	}
	if io, cores := taken(g); io != 3 || cores != 1 || admitted(a2) {
		t.Fatalf("%d I/O slots and %d cores taken, want both pools' slots handed over, not freed", io, cores)
	}
	held[2].Release()
	n := g.Enqueue(ioqueue.Normal, "t", 4096)
	if n.id != 0 || !admitted(n) {
		t.Fatal("a queued active ticket held up a normal one")
	}
	a1.Release()
	if !admitted(a2) {
		t.Fatal("the released core did not go to the queued active ticket")
	}
	for _, tk := range []*Ticket{d, m, n, a2} {
		tk.Release()
	}
	if io, cores := taken(g); io != 0 || cores != 0 {
		t.Fatalf("%d I/O slots and %d cores taken at rest, want 0", io, cores)
	}

	g.Close()
	held = fill()
	e := g.Enqueue(ioqueue.Normal, "t", 4096)
	if !admitted(e) || e.p != nil {
		t.Error("closed gate did not fail open")
	}
	e.Release()
	for _, tk := range held {
		tk.Release()
	}
	if io, _ := taken(g); io != 0 {
		t.Errorf("%d I/O slots taken at rest after Close, want 0", io)
	}
}

// TestQoSGateRace runs 64 goroutines, one in four of them active, through
// a gate of 4 I/O slots and 2 kernel cores: never more admitted at once
// than a pool holds, a ticket admitted inline never overtook one still
// queued, every ticket is admitted exactly once, and at rest the tenants'
// queued gauges and both pools' taken slots are back to zero.
func TestQoSGateRace(t *testing.T) {
	const slots, cores, workers, each = 4, 2, 64, 50
	g := NewQoSGate(QoSConfig{Slots: slots})
	defer g.Close()
	g.ServeActive(cores)
	tab := tenant.NewTable(0)
	g.SetTenants(tab)
	var ioInflight, coreInflight, admitted, inline atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			class, inflight, limit := ioqueue.Normal, &ioInflight, int64(slots)
			if w%4 == 0 {
				class, inflight, limit = ioqueue.Active, &coreInflight, cores
			}
			var prev *Ticket
			for i := 0; i < each; i++ {
				// One class and one tenant per worker keep a worker's tickets
				// in order, so waiting for the older one first cannot wedge.
				tk := g.Enqueue(class, fmt.Sprintf("t%d", w%5), 4096)
				if tk.id == 0 {
					inline.Add(1)
					// Inline means the queue was empty, so this worker's
					// previous ticket cannot still be in it.
					if prev != nil && g.Cancel(prev) {
						t.Error("an inline admission overtook a queued ticket")
					}
				}
				if prev != nil {
					finish(t, prev, inflight, &admitted, limit)
				}
				prev = tk
			}
			finish(t, prev, inflight, &admitted, limit)
		}(w)
	}
	wg.Wait()
	if admitted.Load() != workers*each {
		t.Errorf("%d tickets admitted, want %d", admitted.Load(), workers*each)
	}
	if inline.Load() == 0 {
		t.Error("no ticket took the inline path")
	}
	for _, u := range tab.Snapshot() {
		if u.Queued != 0 {
			t.Errorf("tenant %s left with queued = %d", u.Tenant, u.Queued)
		}
	}
	if io, cores := taken(g); io != 0 || cores != 0 {
		t.Errorf("%d I/O slots and %d kernel cores taken at rest, want 0", io, cores)
	}
}

// finish waits for tk's admission, checks the slot bound while holding
// the slot, and releases it.
func finish(t *testing.T, tk *Ticket, inflight, admitted *atomic.Int64, slots int64) {
	if !tk.Wait() {
		t.Error("ticket cancelled")
		return
	}
	if n := inflight.Add(1); n > slots {
		t.Errorf("%d requests admitted at once through %d slots", n, slots)
	}
	admitted.Add(1)
	runtime.Gosched()
	inflight.Add(-1)
	tk.Release()
}

// admitted reports whether tk has been granted, keeping the grant for a
// later Wait. A grant is complete when the Enqueue, Release or Cancel that
// made it returns, so there is nothing to wait for.
func admitted(tk *Ticket) bool {
	select {
	case ok := <-tk.ch:
		tk.ch <- ok
		return ok
	default:
		return false
	}
}

// taken reads how many I/O slots and kernel cores g has given out.
func taken(g *QoSGate) (io, cores int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.io.used, g.cores.used
}

// TestQoSGatePoolsIndependent: the gate's one queue feeds two pools that
// never hold each other up. With the I/O slot held and a normal read
// queued behind it, active tickets still pass through the kernel core, a
// queued one is granted the core its predecessor releases and can be
// withdrawn while it waits; and the normal read is granted the I/O slot
// alone.
func TestQoSGatePoolsIndependent(t *testing.T) {
	g := NewQoSGate(QoSConfig{Slots: 1})
	defer g.Close()
	g.ServeActive(1)
	hold := g.Enqueue(ioqueue.Normal, "warm", 1)
	if !hold.Wait() {
		t.Fatal("warm ticket not admitted")
	}
	n := g.Enqueue(ioqueue.Normal, "n", 4096)
	a1 := g.Enqueue(ioqueue.Active, "a", 1<<20)
	if !admitted(a1) {
		t.Fatal("an active ticket waited behind the full I/O pool")
	}
	a2, a3 := g.Enqueue(ioqueue.Active, "a", 1<<20), g.Enqueue(ioqueue.Active, "b", 1<<20)
	if admitted(a2) || admitted(a3) {
		t.Fatal("an active ticket was admitted past the held kernel core")
	}
	if st := g.Stats(); st.NormalLen != 1 || st.ActiveLen != 2 {
		t.Fatalf("stats = %+v, want 1 normal and 2 active queued", st)
	}
	if !g.Cancel(a3) || a3.Wait() {
		t.Fatal("a queued active ticket was not withdrawn")
	}
	a1.Release()
	if !admitted(a2) {
		t.Fatal("the released core did not go to the queued active ticket")
	}
	if admitted(n) {
		t.Fatal("a released kernel core admitted a normal read")
	}
	hold.Release()
	if !admitted(n) {
		t.Fatal("the released I/O slot did not go to the queued normal read")
	}
	n.Release()
	a2.Release()
	if st := g.Stats(); st.NormalLen != 0 || st.ActiveLen != 0 {
		t.Errorf("stats = %+v, want nothing queued", st)
	}
}

// TestQoSGateIdleIgnoresActive: Idle — what grants a write landing — looks
// at the I/O pool only, so active work queued for a busy kernel core
// leaves the gate idle, and taken I/O slots do not.
func TestQoSGateIdleIgnoresActive(t *testing.T) {
	g := NewQoSGate(QoSConfig{Slots: 3})
	defer g.Close()
	g.ServeActive(1)
	core := g.Enqueue(ioqueue.Active, "a", 1<<20)
	if !core.Wait() {
		t.Fatal("active ticket not admitted")
	}
	queued := g.Enqueue(ioqueue.Active, "a", 1<<20)
	if g.Stats().ActiveLen != 1 {
		t.Fatal("the second active ticket did not queue behind the held core")
	}
	if !g.Idle() {
		t.Error("queued active work made the gate busy for normal I/O")
	}
	var normal []*Ticket
	for i := 0; i < 3; i++ {
		if !g.Idle() {
			t.Errorf("a gate with %d of 3 I/O slots taken is not idle", i)
		}
		tk := g.Enqueue(ioqueue.Normal, "n", 4096)
		if !tk.Wait() {
			t.Fatal("normal ticket not admitted")
		}
		normal = append(normal, tk)
	}
	if g.Idle() {
		t.Error("a gate with every I/O slot taken is idle")
	}
	for _, tk := range normal {
		tk.Release()
	}
	core.Release()
	if !queued.Wait() {
		t.Fatal("queued active ticket not admitted")
	}
	queued.Release()
}

// TestQoSGateOneSlotIdle: a one-slot gate with nothing admitted is idle —
// before its first ticket, and after a ticket that queued and was handed
// the slot releases it — and busy while its slot is taken.
func TestQoSGateOneSlotIdle(t *testing.T) {
	g := NewQoSGate(QoSConfig{Slots: 1})
	defer g.Close()
	for i := 0; i < 100; i++ {
		if !g.Idle() {
			t.Fatalf("a one-slot gate with nothing admitted is busy (round %d)", i)
		}
		hold := g.Enqueue(ioqueue.Normal, "n", 4096)
		next := g.Enqueue(ioqueue.Normal, "n", 4096)
		if !hold.Wait() || g.Idle() {
			t.Fatal("a one-slot gate with its slot taken is idle")
		}
		hold.Release()
		if !next.Wait() {
			t.Fatal("the queued ticket was not handed the slot")
		}
		next.Release()
	}
}

// TestQoSGateActiveInlineOnFreeCore: on a node with one kernel core, an
// active ticket that finds the core free is admitted inside Enqueue — no
// queue id, no hand-off — and its tenant is charged no queue wait, also
// after a ticket that queued for the core was handed it and released it.
func TestQoSGateActiveInlineOnFreeCore(t *testing.T) {
	g := NewQoSGate(QoSConfig{})
	defer g.Close()
	tab := tenant.NewTable(0)
	g.SetTenants(tab)
	g.ServeActive(1)
	for i := 0; i < 100; i++ {
		tk := g.Enqueue(ioqueue.Active, "a", 1<<20)
		if tk.id != 0 || !admitted(tk) {
			t.Fatalf("active ticket %d on a free core was not admitted by Enqueue", i)
		}
		next := g.Enqueue(ioqueue.Active, "b", 1<<20)
		tk.Release()
		if !next.Wait() {
			t.Fatal("the queued active ticket was not handed the core")
		}
		next.Release()
	}
	for _, u := range tab.Snapshot() {
		if u.Tenant == "a" && (u.Queued != 0 || u.QueueWaitNanos != 0) {
			t.Errorf("inline admissions charged %+v, want no wait", u)
		}
	}
}

// TestQoSGateNormalLoad: the estimator's input counts the I/O slots taken
// and the Normal tickets queued for one — not active work, queued or on a
// core — and falls as slots are released; a nil gate reads 0.
func TestQoSGateNormalLoad(t *testing.T) {
	if n := (*QoSGate)(nil).NormalLoad(); n != 0 {
		t.Errorf("nil gate load = %d, want 0", n)
	}
	g := NewQoSGate(QoSConfig{Slots: 2})
	defer g.Close()
	g.ServeActive(1)
	core, queued := g.Enqueue(ioqueue.Active, "a", 1<<20), g.Enqueue(ioqueue.Active, "a", 1<<20)
	var normal []*Ticket
	for i, want := range []int{1, 2, 3, 4} {
		normal = append(normal, g.Enqueue(ioqueue.Normal, "n", 4096))
		if got := g.NormalLoad(); got != want {
			t.Errorf("after %d normal tickets (2 slots): load = %d, want %d", i+1, got, want)
		}
	}
	for i, tk := range normal {
		if !tk.Wait() {
			t.Fatal("normal ticket not admitted")
		}
		tk.Release()
		if got, want := g.NormalLoad(), len(normal)-i-1; got != want {
			t.Errorf("after %d releases: load = %d, want %d", i+1, got, want)
		}
	}
	core.Release()
	if !queued.Wait() {
		t.Fatal("queued active ticket not admitted")
	}
	queued.Release()
}

// A nil gate (QoS disabled) admits everything immediately and never
// panics — the serving path calls it unconditionally.
func TestQoSGateNilFailOpen(t *testing.T) {
	var g *QoSGate
	tk := g.Enqueue(ioqueue.Normal, "a", 1)
	if !tk.Wait() {
		t.Fatal("nil gate did not admit")
	}
	tk.Release()
	g.SetTenants(nil)
	g.Close()
	if st := g.Stats(); st.NormalLen != 0 {
		t.Errorf("nil gate stats = %+v", st)
	}
	if g.Cancel(tk) {
		t.Error("nil gate Cancel reported found")
	}
}

// TestCancelRegistryTombstone covers the mux dispatch race where the
// CancelReq overtakes its ReadReq: the unknown hedge-tagged id leaves a
// flagged tombstone, the late register picks it up, and expired
// tombstones are swept.
func TestCancelRegistryTombstone(t *testing.T) {
	var r cancelRegistry
	now := time.Unix(1000, 0)
	r.now = func() time.Time { return now }

	id := HedgeIDBit | 7
	if r.cancel(id) {
		t.Fatal("cancel of unknown id reported found")
	}
	cs := r.register(id)
	if !cs.flag.Load() {
		t.Fatal("register after cancel lost the tombstone flag")
	}
	r.unregister(id)

	// Non-hedge ids never tombstone: the active runtime owns that space.
	if r.cancel(42) {
		t.Fatal("cancel of unknown active id reported found")
	}
	if len(r.m) != 0 {
		t.Fatalf("active-id cancel left %d registry entries", len(r.m))
	}

	// A tombstone whose ReadReq never arrives is swept after the TTL.
	r.cancel(HedgeIDBit | 8)
	now = now.Add(tombstoneTTL + time.Second)
	r.cancel(HedgeIDBit | 9) // sweep happens on the next unknown cancel
	r.mu.Lock()
	_, stale := r.m[HedgeIDBit|8]
	r.mu.Unlock()
	if stale {
		t.Error("expired tombstone survived the sweep")
	}
}

// TestServerCancelBeforeRead drives the tombstone race end to end: a
// CancelReq arriving before its ReadReq must make the read answer
// StatusCancelled instead of serving withdrawn bytes.
func TestServerCancelBeforeRead(t *testing.T) {
	tc := startCluster(t, 1)
	pool := tc.client.Pool()

	id := HedgeIDBit | 99
	resp, err := pool.Call("data-0", &wire.CancelReq{RequestID: id})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(*wire.CancelResp).Found {
		t.Fatal("cancel of a not-yet-arrived read reported found")
	}
	_, err = pool.Call("data-0", &wire.ReadReq{Handle: 1, Length: 4096, ReqID: id})
	if !IsCancelled(err) {
		t.Fatalf("read after cancel = %v, want cancelled", err)
	}
	if v := tc.datas[0].Metrics().Counter("data.read_cancelled").Value(); v != 1 {
		t.Errorf("data.read_cancelled = %d, want 1", v)
	}
}

// TestCancelInFlightReadZeroFills cancels a windowed read while chunk
// requests are pipelined against a slow store. The server must stop
// serving real bytes for the chunks it had already accepted — zero-filling
// their committed frame space — and the in-flight accounting must drain
// back to zero. This exercises the concurrently-dispatched handlers racing
// the CancelReq. None of the zero-filled bytes reaches the caller's
// buffer: Cancel detaches the chunks' landings before it asks, so the
// buffer holds only its own bytes and the file's, and is exactly as
// readWindowed left it when it returned.
func TestCancelInFlightReadZeroFills(t *testing.T) {
	t.Run("mux", func(t *testing.T) {
		net := transport.NewInproc()
		st := &slowStore{Store: NewMemStore()}
		st.delay.Store(int64(300 * time.Millisecond))
		ds, err := NewDataServer(DataConfig{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("data-0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(l, ds)
		srv.SetFrameStats(ds.WireStats())
		srv.Start()
		defer srv.Close()

		data := make([]byte, 1<<20)
		rand.New(rand.NewSource(7)).Read(data)
		if _, err := st.WriteAt(1, data, 0); err != nil {
			t.Fatal(err)
		}

		p := NewPool(net)
		defer p.Close()

		dst := bytes.Repeat([]byte{0xFF}, len(data))
		ctl := p.NewReadControl("data-0")
		done := make(chan error, 1)
		var atReturn []byte
		go func() {
			_, err := p.readWindowed("data-0", 1, contig(dst), 0, 4, 256<<10, ctl)
			atReturn = bytes.Clone(dst)
			done <- err
		}()
		// All four chunk requests fit one window round, so by now every
		// one is registered at the server and stuck in the slow store —
		// the cancel lands squarely on in-flight reads.
		time.Sleep(100 * time.Millisecond)
		ctl.Cancel()

		select {
		case err := <-done:
			if !IsCancelled(err) {
				t.Fatalf("cancelled read returned %v, want cancelled", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("cancelled read never returned")
		}

		// The server observed the cancellation while frames were on the
		// wire: committed bytes were zero-filled, not served.
		waitFor(t, "cancelled bytes recorded", func() bool {
			return ds.WireStats().CancelledBytes.Load() > 0
		})
		// And the pressure gauge is conserved once everything drains.
		waitFor(t, "data.inflight back to 0", func() bool {
			return ds.Metrics().Gauge("data.inflight").Value() == 0
		})
		if !bytes.Equal(dst, atReturn) {
			t.Fatalf("the caller's buffer changed after the cancelled read returned (first at %d)", firstDiff(dst, atReturn))
		}
		for i, b := range dst {
			if b != 0xFF && b != data[i] {
				t.Fatalf("byte %d of the caller's buffer is %#x: neither its own nor the file's", i, b)
			}
		}
	})
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// slowStore delays reads only: writes replicate at full speed, so a
// straggling node is indistinguishable from a healthy one until it has
// to serve.
type slowStore struct {
	Store
	delay atomic.Int64 // nanoseconds per ReadAt
	fast  atomic.Int64 // reads served without the delay before it applies
}

func (s *slowStore) ReadAt(handle uint64, p []byte, off uint64) (int, error) {
	if d := s.delay.Load(); d > 0 && s.fast.Add(-1) < 0 {
		time.Sleep(time.Duration(d))
	}
	return s.Store.ReadAt(handle, p, off)
}

// hedgeCluster is a 2-server cluster whose per-server read latency can
// be dialed up after layout placement is known.
type hedgeCluster struct {
	*testCluster
	stores []*slowStore
}

func startHedgeCluster(t *testing.T, hedgeAfter time.Duration) *hedgeCluster {
	t.Helper()
	hc := &hedgeCluster{stores: []*slowStore{{Store: NewMemStore()}, {Store: NewMemStore()}}}
	hc.testCluster = startClusterWith(t, clusterOpts{
		nData:  len(hc.stores),
		store:  func(i int) Store { return hc.stores[i] },
		client: func(cc *ClientConfig) { cc.HedgeAfter = hedgeAfter },
	})
	return hc
}

// writeReplicated creates a width-1, 2-replica file and returns it with
// its primary server index (layout placement decides which node that is).
func (hc *hedgeCluster) writeReplicated(t *testing.T, data []byte) (*File, int) {
	t.Helper()
	f, err := hc.client.CreateReplicated("hedge/f", 1<<20, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	return f, int(f.Layout().Servers[0])
}

// TestHedgedReadWinsOnSlowReplica: with the primary straggling well past
// the hedge delay, the duplicate read from the second replica must win
// and deliver correct bytes, with the race visible in the pool counters.
func TestHedgedReadWinsOnSlowReplica(t *testing.T) {
	hc := startHedgeCluster(t, 15*time.Millisecond)
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(11)).Read(data)
	f, prim := hc.writeReplicated(t, data)
	hc.stores[prim].delay.Store(int64(250 * time.Millisecond))

	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("hedged read corrupted data")
	}
	reg := hc.client.Pool().Metrics()
	if v := reg.Counter("pool.hedge.launched").Value(); v < 1 {
		t.Errorf("pool.hedge.launched = %d, want >= 1", v)
	}
	if v := reg.Counter("pool.hedge.wins").Value(); v < 1 {
		t.Errorf("pool.hedge.wins = %d, want >= 1", v)
	}
	if v := reg.Counter("pool.hedge.bytes").Value(); v < int64(len(data)) {
		t.Errorf("pool.hedge.bytes = %d, want >= %d (winning copy accounted)", v, len(data))
	}
}

// TestHedgeSurvivesPrimaryDeath kills the primary's server while the
// hedge is in flight: the hedge copy must complete the read.
func TestHedgeSurvivesPrimaryDeath(t *testing.T) {
	hc := startHedgeCluster(t, 10*time.Millisecond)
	data := make([]byte, 128<<10)
	rand.New(rand.NewSource(12)).Read(data)
	f, prim := hc.writeReplicated(t, data)
	hc.stores[prim].delay.Store(int64(2 * time.Second))
	hc.stores[1-prim].delay.Store(int64(80 * time.Millisecond))

	got := make([]byte, len(data))
	done := make(chan error, 1)
	go func() {
		_, err := f.ReadAt(got, 0)
		done <- err
	}()
	reg := hc.client.Pool().Metrics()
	waitFor(t, "hedge launch", func() bool {
		return reg.Counter("pool.hedge.launched").Value() >= 1
	})
	hc.servers[prim].Close() // primary node dies mid-read

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("read with dead primary = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read never completed after primary death")
	}
	if !bytes.Equal(got, data) {
		t.Fatal("failover read corrupted data")
	}
	if v := reg.Counter("pool.hedge.wins").Value(); v < 1 {
		t.Errorf("pool.hedge.wins = %d, want >= 1", v)
	}
}

// TestPrimarySurvivesHedgeDeath is the mirror image: the hedge target
// dies while its duplicate read is in flight, and the straggling — but
// alive — primary must still finish the read.
func TestPrimarySurvivesHedgeDeath(t *testing.T) {
	hc := startHedgeCluster(t, 10*time.Millisecond)
	data := make([]byte, 128<<10)
	rand.New(rand.NewSource(13)).Read(data)
	f, prim := hc.writeReplicated(t, data)
	hc.stores[prim].delay.Store(int64(300 * time.Millisecond))
	hc.stores[1-prim].delay.Store(int64(300 * time.Millisecond))

	got := make([]byte, len(data))
	done := make(chan error, 1)
	go func() {
		_, err := f.ReadAt(got, 0)
		done <- err
	}()
	reg := hc.client.Pool().Metrics()
	waitFor(t, "hedge launch", func() bool {
		return reg.Counter("pool.hedge.launched").Value() >= 1
	})
	hc.servers[1-prim].Close() // hedge target dies mid-flight

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("read with dead hedge target = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read never completed after hedge death")
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read corrupted data after hedge death")
	}
	if v := reg.Counter("pool.hedge.wins").Value(); v != 0 {
		t.Errorf("pool.hedge.wins = %d, want 0 (primary finished)", v)
	}
}

// TestReplicaOrderAvoidsStraggler: once the latency tracker has evidence
// that the primary is slow, plain (un-hedged) reads route to the faster
// replica without any failure having occurred.
func TestReplicaOrderAvoidsStraggler(t *testing.T) {
	hc := startHedgeCluster(t, 0) // hedging off: pure selection
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(14)).Read(data)
	f, prim := hc.writeReplicated(t, data)

	primAddr := fmt.Sprintf("data-%d", prim)
	lat := hc.client.Pool().Latency()
	for i := 0; i < 8; i++ {
		lat.Observe(primAddr, len(data), 50*time.Millisecond)
	}

	before := hc.datas[prim].Metrics().Counter("data.read").Value()
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("re-routed read corrupted data")
	}
	if after := hc.datas[prim].Metrics().Counter("data.read").Value(); after != before {
		t.Errorf("straggler served %d reads, want 0 (replica order should avoid it)", after-before)
	}
	if v := hc.datas[1-prim].Metrics().Counter("data.read").Value(); v < 1 {
		t.Errorf("fast replica served %d reads, want >= 1", v)
	}
}

// TestQoSGatedClusterEndToEnd smoke-tests the full serving path with
// admission gates on: reads and writes still round-trip, and the gate's
// stats register traffic.
func TestQoSGatedClusterEndToEnd(t *testing.T) {
	net := transport.NewInproc()
	qos := &QoSConfig{Slots: 2, Weights: map[string]float64{"app-a": 4}}
	meta, err := NewMetaServer(MetaConfig{NumDataServers: 1, QoS: qos})
	if err != nil {
		t.Fatal(err)
	}
	ml, _ := net.Listen("meta")
	ms := NewServer(ml, meta)
	ms.Start()
	t.Cleanup(ms.Close)

	ds, err := NewDataServer(DataConfig{Store: NewMemStore(), QoS: qos})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ds.Close)
	dl, _ := net.Listen("data-0")
	srv := NewServer(dl, ds)
	srv.Start()
	t.Cleanup(srv.Close)

	c, err := NewClient(ClientConfig{
		Net: net, MetaAddr: "meta", DataAddrs: []string{"data-0"}, Tenant: "app-a",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	f, err := c.Create("qos/x", 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 32<<10)
	rand.New(rand.NewSource(15)).Read(data)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("gated round trip corrupted data")
	}
	if _, err := c.Stat("qos/x"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.List("qos/"); err != nil {
		t.Fatal(err)
	}
	if errors.Is(err, ErrCancelled) {
		t.Fatal("uncontended gated traffic must never cancel")
	}
}
