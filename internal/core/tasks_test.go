package core

import (
	"slices"
	"testing"
	"time"

	"dosas/internal/pfs"
	"dosas/internal/wire"
)

// newGatedRuntime builds a runtime whose store holds size bytes under
// handle 1 and answers no read until the store is opened (at the latest
// when the test ends), so the first admitted kernel holds the runtime's one
// worker at zero progress. The policy loop stays idle and every op is a
// fast one: the solver accepts everything.
func newGatedRuntime(t *testing.T, mode Mode, size int) (*Runtime, *gatedStore) {
	t.Helper()
	store := &gatedStore{MemStore: pfs.NewMemStore(), gate: make(chan struct{})}
	if _, err := store.WriteAt(1, make([]byte, size), 0); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(RuntimeConfig{
		Store: store,
		Mode:  mode,
		Estimator: EstimatorConfig{
			BW:      118e6,
			Period:  time.Hour,
			RateFor: func(string) float64 { return 860e6 },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	t.Cleanup(store.open) // runs first: lets the held kernel finish
	return rt, store
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestRuntimeViewInArrivalOrder: the solver sees the task table in the
// order requests arrived — the held kernel first, the queued requests as
// they came, the newcomer last — whatever their request ids.
func TestRuntimeViewInArrivalOrder(t *testing.T) {
	rt, _ := newGatedRuntime(t, ModeDynamic, 1<<20)
	ids := []uint64{5, 3, 9, 1, 7, 2, 8, 4}
	for i, id := range ids {
		go rt.HandleActive(&wire.ActiveReadReq{RequestID: id, Handle: 1, Length: 1000 * id, Op: "sum8"}) //nolint:errcheck // answered at cleanup
		waitUntil(t, "the request to enter the table", func() bool {
			p, _ := rt.HandleProbe()
			return int(p.BusyCores)+int(p.ActiveQueueLen) == i+1
		})
	}
	snap := rt.cfg.Audit.Snapshot()
	if len(snap) != len(ids) {
		t.Fatalf("%d decisions, want %d", len(snap), len(ids))
	}
	var got []uint64
	for _, f := range snap[len(snap)-1].Reqs {
		got = append(got, f.ReqID)
	}
	if !slices.Equal(got, ids) {
		t.Errorf("scheduler view = %v, want arrival order %v", got, ids)
	}
}

// TestRuntimeCancelTakenTask: a request the gate has granted a kernel core
// but that has not started still counts as queued, and a cancel finds it
// and interrupts it before its first chunk: the client gets a checkpoint
// at 0 bytes to finish from.
func TestRuntimeCancelTakenTask(t *testing.T) {
	rt, _ := newGatedRuntime(t, ModeAlwaysAccept, 1000)
	go rt.HandleActive(&wire.ActiveReadReq{RequestID: 1, Handle: 1, Length: 1000, Op: "sum8"}) //nolint:errcheck // answered at cleanup
	waitUntil(t, "the first kernel to hold the core", func() bool {
		p, _ := rt.HandleProbe()
		return p.BusyCores == 1
	})
	// Request 2 queues behind the held kernel. Handing the held kernel's
	// core back lets the gate grant it to request 2, which — entered by
	// hand, with nothing waiting on its ticket — does not start.
	taken := &task{op: "sum8", handle: 1, length: 500, reqID: 2}
	if !rt.enqueue(taken) {
		t.Fatal("runtime refused request 2")
	}
	rt.mu.Lock()
	held := rt.tasks[0].ticket
	rt.mu.Unlock()
	held.Release()
	waitUntil(t, "the gate to grant request 2 a core", func() bool { return rt.queueStats().ActiveLen == 0 })
	if p, _ := rt.HandleProbe(); p.ActiveQueueLen != 1 || p.BytesQueued != 500 {
		t.Errorf("probe = %+v, want the taken request still queued", p)
	}
	cr, err := rt.HandleCancel(&wire.CancelReq{RequestID: 2})
	if err != nil || !cr.Found {
		t.Fatalf("cancel of a taken request = %+v, %v", cr, err)
	}
	done := make(chan *wire.ActiveReadResp, 1)
	go func() {
		resp, err := rt.submit(taken, true)
		if err != nil {
			t.Error(err)
		}
		r, _ := resp.(*wire.ActiveReadResp)
		done <- r
	}()
	select {
	case resp := <-done:
		if resp == nil || resp.Disposition != wire.ActiveInterrupted || resp.Processed != 0 || len(resp.State) == 0 {
			t.Errorf("cancelled request answered %+v, want interrupted at 0 bytes with a checkpoint", resp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled request never answered")
	}
}

// TestRuntimeCancelMatchesTraceID: request ids are per client, so a cancel
// names its request by id and trace id. Client A's request 1 runs, client
// B's request 1 queues behind it, and B's cancel withdraws B's request
// alone: A's kernel is not interrupted.
func TestRuntimeCancelMatchesTraceID(t *testing.T) {
	rt, store := newGatedRuntime(t, ModeAlwaysAccept, 1000)
	answers := make(chan *wire.ActiveReadResp, 2)
	send := func(traceID uint64) {
		resp, err := rt.HandleActive(&wire.ActiveReadReq{RequestID: 1, TraceID: traceID, Handle: 1, Length: 1000, Op: "sum8"})
		if err != nil {
			t.Error(err)
		}
		answers <- resp
	}
	go send(0xA)
	waitUntil(t, "client A's kernel to hold the core", func() bool {
		p, _ := rt.HandleProbe()
		return p.BusyCores == 1
	})
	go send(0xB)
	waitUntil(t, "client B's request to queue", func() bool { return rt.queueStats().ActiveLen == 1 })
	cr, err := rt.HandleCancel(&wire.CancelReq{RequestID: 1, TraceID: 0xB})
	if err != nil || !cr.Found {
		t.Fatalf("B's cancel = %+v, %v", cr, err)
	}
	answer := func(whose string) *wire.ActiveReadResp {
		t.Helper()
		select {
		case r := <-answers:
			return r
		case <-time.After(5 * time.Second):
			t.Fatalf("%s request never answered", whose)
			return nil
		}
	}
	b := answer("B's")
	if b == nil || b.TraceID != 0xB || b.Disposition != wire.ActiveRejected {
		t.Fatalf("B's withdrawn request answered %+v, want a bounce of trace 0xb", b)
	}
	store.open()
	a := answer("A's")
	if a == nil || a.TraceID != 0xA || a.Disposition != wire.ActiveDone || a.Processed != 1000 {
		t.Errorf("A's request answered %+v, want done over 1000 bytes", a)
	}
}
