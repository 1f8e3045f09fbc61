package core

import (
	"testing"
	"time"

	"dosas/internal/ioqueue"
	"dosas/internal/metrics"
	"dosas/internal/pfs"
	"dosas/internal/telemetry"
	"dosas/internal/tenant"
	"dosas/internal/wire"
)

// wrappedRuntime wraps the runtime the way a timing shim does: it embeds
// *Runtime and overrides HandleActive, so the data server finds UseGate
// and the other optional methods by promotion.
type wrappedRuntime struct{ *Runtime }

func (r *wrappedRuntime) HandleActive(req *wire.ActiveReadReq) (*wire.ActiveReadResp, error) {
	return r.Runtime.HandleActive(req)
}

// TestAttachedWrapperSharesNodeQueue: a runtime attached to a gated data
// server behind an embedding wrapper queues its tasks at the server's gate.
// Queued active reads show in the gate's ActiveLen; a tenant's active queue
// wait is charged once; and gate.throttled and qos.deficit read what the
// node's two queues used to add up to — a queue of the normal items and a
// queue of the active items, replayed by hand.
func TestAttachedWrapperSharesNodeQueue(t *testing.T) {
	const mib = 1 << 20
	const hold = 100 * time.Millisecond
	store := &gatedStore{MemStore: pfs.NewMemStore(), gate: make(chan struct{})}
	if _, err := store.WriteAt(1, make([]byte, 4*mib), 0); err != nil {
		t.Fatal(err)
	}
	reg, tab := metrics.NewRegistry(), tenant.NewTable(0)
	tele := telemetry.NewSampler(telemetry.Config{})
	ds, err := pfs.NewDataServer(pfs.DataConfig{
		Store: store, Metrics: reg, Telemetry: tele, Tenants: tab, QoS: &pfs.QoSConfig{Slots: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ds.Close)
	rt, err := NewRuntime(RuntimeConfig{Store: store, Mode: ModeAlwaysAccept, Metrics: reg, Tenants: tab})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ds.SetActiveHandler(&wrappedRuntime{Runtime: rt})
	t.Cleanup(store.open)
	rt.mu.Lock()
	handed := rt.gate
	rt.mu.Unlock()
	if handed != ds.Gate() {
		t.Fatal("the wrapped runtime was not handed the server's gate")
	}
	gate := ds.Gate()

	normal := []ioqueue.Item{{Tenant: "x"}, {Tenant: "y"}, {Tenant: "x"}, {Tenant: "y"}}
	active := []ioqueue.Item{{Tenant: "b"}, {Tenant: "c"}, {Tenant: "b"}, {Tenant: "c"}}
	answered := make(chan error, 1+len(normal)+len(active))
	serve := func(msg wire.Message) {
		_, err := ds.Handle(msg)
		answered <- err
	}

	// A held ticket takes the one I/O slot, so the normal reads queue.
	held := gate.Enqueue(ioqueue.Normal, "warm", 1)
	if !held.Wait() {
		t.Fatal("gate refused the held ticket")
	}
	for i, it := range normal {
		go serve(&wire.ReadReq{Handle: 1, Length: mib, Tenant: it.Tenant})
		waitUntil(t, "a normal read to queue", func() bool { return gate.Stats().NormalLen == i+1 })
	}
	// Tenant a's kernel takes the one kernel core and waits in the store.
	go serve(&wire.ActiveReadReq{RequestID: 1, Handle: 1, Length: mib, Op: "sum8", Tenant: "a"})
	waitUntil(t, "a's kernel to hold the core", func() bool {
		p, _ := rt.HandleProbe()
		return p.BusyCores == 1
	})
	queuedAt := time.Now()
	for i, it := range active {
		go serve(&wire.ActiveReadReq{RequestID: uint64(i + 2), Handle: 1, Length: mib, Op: "sum8", Tenant: it.Tenant})
		waitUntil(t, "an active read to queue", func() bool { return gate.Stats().ActiveLen == i+1 })
	}
	if st := gate.Stats(); st.ActiveLen != len(active) || st.ActiveBytes != uint64(len(active))*mib {
		t.Fatalf("gate stats %+v, want %d queued active reads", st, len(active))
	}
	// The held slot goes to the first normal read, which waits in the store.
	held.Release()
	waitUntil(t, "the first normal read to leave the queue", func() bool { return gate.Stats().NormalLen == len(normal)-1 })

	// Each class replayed through a queue of its own, as the node ran them.
	replay := func(class ioqueue.Class, items []ioqueue.Item) *ioqueue.Queue {
		q := ioqueue.New()
		for i, it := range items {
			it.ID, it.Class, it.Bytes = uint64(i+1), class, mib
			if err := q.Push(it); err != nil {
				t.Fatal(err)
			}
		}
		return q
	}
	qn, qa := replay(ioqueue.Normal, normal), replay(ioqueue.Active, active)
	qn.Pop()
	tele.Tick()
	deficit, _ := tele.Get("qos.deficit", time.Hour)
	if want := qn.Stats().DeficitBytes + qa.Stats().DeficitBytes; want == 0 || deficit.Last().Value != float64(want) {
		t.Errorf("qos.deficit = %v, want the two queues' %d", deficit.Last().Value, want)
	}

	time.Sleep(hold)
	store.open()
	for i := 0; i < cap(answered); i++ {
		select {
		case err := <-answered:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a request was never answered")
		}
	}
	waited := time.Since(queuedAt)
	for _, q := range []*ioqueue.Queue{qn, qa} {
		for _, err := q.Pop(); err == nil; _, err = q.Pop() {
		}
	}
	ds.SyncWireStats()
	want := qn.Stats().Throttled + qa.Stats().Throttled
	if got := reg.Counter("gate.throttled").Value(); qa.Stats().Throttled == 0 || got != int64(want) {
		t.Errorf("gate.throttled = %d, want the two queues' %d (active %d)", got, want, qa.Stats().Throttled)
	}

	// b's two reads each waited the hold at least, and at most from their
	// push to the last answer; a second charge would pass that bound.
	rows := map[string]tenant.Usage{}
	for _, u := range tab.Snapshot() {
		rows[u.Tenant] = u
	}
	b := time.Duration(rows["b"].QueueWaitNanos)
	if b < 2*hold || b > 2*waited {
		t.Errorf("tenant b waited %v in all, want each of its 2 reads charged once: between %v and %v", b, 2*hold, 2*waited)
	}
	for name, u := range rows {
		if u.Queued != 0 {
			t.Errorf("tenant %s still counts %d queued", name, u.Queued)
		}
	}
}
