package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dosas/internal/kernels"
	"dosas/internal/metrics"
	"dosas/internal/pfs"
	"dosas/internal/wire"
)

// gatedStore is a MemStore whose reads wait until open is called, so the
// first admitted kernel holds the runtime's one worker at zero progress.
type gatedStore struct {
	*pfs.MemStore
	gate chan struct{}
	once sync.Once
}

func (s *gatedStore) ReadAt(handle uint64, p []byte, off uint64) (int, error) {
	<-s.gate
	return s.MemStore.ReadAt(handle, p, off)
}

func (s *gatedStore) open() { s.once.Do(func() { close(s.gate) }) }

// TestRuntimeDecisionsPinned pins the admission decisions of a dynamic-mode
// runtime over a fixed arrival sequence: with the worker held at zero
// progress and the policy loop idle, every decision is a function of the
// requests the runtime holds. Each row is one admit record: the newcomer's
// verdict, the queued and running counts the decision was made against,
// and every request's accept flag in request-id order.
func TestRuntimeDecisionsPinned(t *testing.T) {
	const width = 100
	store := &gatedStore{MemStore: pfs.NewMemStore(), gate: make(chan struct{})}
	if _, err := store.WriteAt(1, make([]byte, 2_000_000), 0); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(RuntimeConfig{
		Store: store,
		Mode:  ModeDynamic,
		Estimator: EstimatorConfig{
			BW:     118e6,
			Period: time.Hour,
			RateFor: func(op string) float64 {
				if op == "gaussian2d" {
					return 80e6
				}
				return 860e6
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	t.Cleanup(store.open) // runs first: lets the held kernel finish

	gauss := kernels.GaussianParams(width, false)
	arrivals := []struct {
		op    string
		bytes uint64
	}{
		{"gaussian2d", 1_000_000},
		{"sum8", 1_500_000},
		{"gaussian2d", 800_000},
		{"gaussian2d", 1_200_000},
		{"sum8", 700_000},
		{"gaussian2d", 600_000},
		{"gaussian2d", 1_400_000},
		{"sum8", 300_000},
		{"gaussian2d", 900_000},
		{"gaussian2d", 500_000},
		{"sum8", 1_100_000},
		{"gaussian2d", 1_300_000},
	}
	type decision struct {
		accept          bool
		queued, running int
		accepts         string
	}
	want := []decision{
		{true, 0, 0, "1+"},
		{true, 0, 1, "1+ 2+"},
		{true, 1, 1, "1+ 2+ 3+"},
		{true, 2, 1, "1+ 2+ 3+ 4+"},
		{true, 3, 1, "1+ 2+ 3+ 4+ 5+"},
		{true, 4, 1, "1+ 2+ 3+ 4+ 5+ 6+"},
		{false, 5, 1, "1- 2+ 3- 4- 5+ 6- 7-"},
		{true, 5, 1, "1+ 2+ 3+ 4+ 5+ 6+ 8+"},
		{false, 6, 1, "1- 2+ 3- 4- 5+ 6- 8+ 9-"},
		{false, 6, 1, "1- 2+ 3- 4- 5+ 6- 8+ 10-"},
		{true, 6, 1, "1+ 2+ 3+ 4+ 5+ 6+ 8+ 11+"},
		{false, 7, 1, "1- 2+ 3- 4- 5+ 6- 8+ 11+ 12-"},
	}

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	queuedLen := 0
	for i, a := range arrivals {
		req := &wire.ActiveReadReq{RequestID: uint64(i + 1), Handle: 1, Length: a.bytes, Op: a.op}
		if a.op == "gaussian2d" {
			req.Params = gauss
		}
		done := make(chan *wire.ActiveReadResp, 1)
		go func() {
			resp, err := rt.HandleActive(req)
			if err != nil {
				resp = nil
			}
			done <- resp
		}()
		waitFor(fmt.Sprintf("decision %d", i+1), func() bool { return len(rt.cfg.Audit.Snapshot()) == i+1 })
		r := rt.cfg.Audit.Snapshot()[i]
		nc := r.Newcomer()
		if nc == nil || nc.ReqID != req.RequestID {
			t.Fatalf("decision %d: newcomer %+v", i+1, nc)
		}
		got := decision{accept: nc.Accept, queued: r.Queued, running: r.Running}
		switch {
		case !got.accept:
			if resp := <-done; resp == nil || resp.Disposition != wire.ActiveRejected {
				t.Fatalf("decision %d: bounced newcomer answered %+v", i+1, resp)
			}
		case i == 0:
			waitFor("the first kernel to hold the worker", func() bool {
				p, _ := rt.HandleProbe()
				return p.BusyCores == 1
			})
		default:
			queuedLen++
			waitFor(fmt.Sprintf("request %d to queue", i+1), func() bool { return rt.queueStats().ActiveLen == queuedLen })
		}
		reqs := r.Reqs
		sort.Slice(reqs, func(a, b int) bool { return reqs[a].ReqID < reqs[b].ReqID })
		var parts []string
		for _, f := range reqs {
			mark := "+"
			if !f.Accept {
				mark = "-"
			}
			parts = append(parts, fmt.Sprintf("%d%s", f.ReqID, mark))
		}
		got.accepts = strings.Join(parts, " ")
		if got != want[i] {
			t.Errorf("decision %d = %+v, want %+v", i+1, got, want[i])
		}
	}
}

// TestNodeDecisionsPinned is TestRuntimeDecisionsPinned on a whole storage
// node: the dynamic runtime is attached to a data server with an admission
// gate, a normal read waits in the store (data.inflight = 1, so the
// estimator discounts the storage rate), and the arrivals come through the
// server's Handle. Each row is one admit record: the newcomer's verdict,
// the queued and running counts, and every request's accept flag in
// request-id order.
func TestNodeDecisionsPinned(t *testing.T) {
	const width = 100
	store := &gatedStore{MemStore: pfs.NewMemStore(), gate: make(chan struct{})}
	if _, err := store.WriteAt(1, make([]byte, 2_000_000), 0); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	ds, err := pfs.NewDataServer(pfs.DataConfig{Store: store, Metrics: reg, QoS: &pfs.QoSConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ds.Close)
	rt, err := NewRuntime(RuntimeConfig{
		Store:   store,
		Mode:    ModeDynamic,
		Metrics: reg,
		Estimator: EstimatorConfig{
			BW:     118e6,
			Period: time.Hour,
			RateFor: func(op string) float64 {
				if op == "gaussian2d" {
					return 80e6
				}
				return 860e6
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ds.SetActiveHandler(rt)
	t.Cleanup(store.open) // runs first: lets the held reads and kernel finish

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	go ds.Handle(&wire.ReadReq{Handle: 1, Length: 4096}) //nolint:errcheck // answered at cleanup
	waitFor("a normal read in flight", func() bool { return reg.Gauge("data.inflight").Value() == 1 })

	gauss := kernels.GaussianParams(width, false)
	arrivals := []struct {
		op    string
		bytes uint64
	}{
		{"gaussian2d", 1_000_000},
		{"sum8", 1_500_000},
		{"gaussian2d", 800_000},
		{"gaussian2d", 1_200_000},
		{"sum8", 700_000},
		{"gaussian2d", 600_000},
		{"gaussian2d", 1_400_000},
		{"sum8", 300_000},
		{"gaussian2d", 900_000},
		{"gaussian2d", 500_000},
		{"sum8", 1_100_000},
		{"gaussian2d", 1_300_000},
	}
	type decision struct {
		accept          bool
		queued, running int
		accepts         string
	}
	want := []decision{
		{true, 0, 0, "1+"},
		{true, 0, 1, "1+ 2+"},
		{false, 1, 1, "1- 2+ 3-"},
		{false, 1, 1, "1- 2+ 4-"},
		{true, 1, 1, "1+ 2+ 5+"},
		{false, 2, 1, "1- 2+ 5+ 6-"},
		{false, 2, 1, "1- 2+ 5+ 7-"},
		{true, 2, 1, "1+ 2+ 5+ 8+"},
		{false, 3, 1, "1- 2+ 5+ 8+ 9-"},
		{false, 3, 1, "1- 2+ 5+ 8+ 10-"},
		{true, 3, 1, "1+ 2+ 5+ 8+ 11+"},
		{false, 4, 1, "1- 2+ 5+ 8+ 11+ 12-"},
	}

	queuedLen, held := 0, false
	for i, a := range arrivals {
		req := &wire.ActiveReadReq{RequestID: uint64(i + 1), Handle: 1, Length: a.bytes, Op: a.op}
		if a.op == "gaussian2d" {
			req.Params = gauss
		}
		done := make(chan *wire.ActiveReadResp, 1)
		go func() {
			resp, err := ds.Handle(req)
			ar, _ := resp.(*wire.ActiveReadResp)
			if err != nil {
				ar = nil
			}
			done <- ar
		}()
		waitFor(fmt.Sprintf("decision %d", i+1), func() bool { return len(rt.cfg.Audit.Snapshot()) == i+1 })
		r := rt.cfg.Audit.Snapshot()[i]
		nc := r.Newcomer()
		if nc == nil || nc.ReqID != req.RequestID {
			t.Fatalf("decision %d: newcomer %+v", i+1, nc)
		}
		got := decision{accept: nc.Accept, queued: r.Queued, running: r.Running}
		switch {
		case !got.accept:
			if resp := <-done; resp == nil || resp.Disposition != wire.ActiveRejected {
				t.Fatalf("decision %d: bounced newcomer answered %+v", i+1, resp)
			}
		case !held:
			held = true
			waitFor("the first accepted kernel to hold the core", func() bool {
				p, _ := rt.HandleProbe()
				return p.BusyCores == 1
			})
		default:
			queuedLen++
			waitFor(fmt.Sprintf("request %d to queue", i+1), func() bool { return ds.Gate().Stats().ActiveLen == queuedLen })
		}
		reqs := r.Reqs
		sort.Slice(reqs, func(a, b int) bool { return reqs[a].ReqID < reqs[b].ReqID })
		var parts []string
		for _, f := range reqs {
			mark := "+"
			if !f.Accept {
				mark = "-"
			}
			parts = append(parts, fmt.Sprintf("%d%s", f.ReqID, mark))
		}
		got.accepts = strings.Join(parts, " ")
		if got != want[i] {
			t.Errorf("decision %d = %+v, want %+v", i+1, got, want[i])
		}
	}
}
