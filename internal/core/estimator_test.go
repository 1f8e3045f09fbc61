package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dosas/internal/ioqueue"
	"dosas/internal/pfs"
	"dosas/internal/wire"
)

func testEstimator(cfg EstimatorConfig) *Estimator {
	e, err := NewEstimator(cfg, nil)
	if err != nil {
		panic(err)
	}
	return e
}

// holdNormal holds n admitted Normal tickets on rt's gate, as n plain
// reads or writes in service would, and returns their release, which also
// runs when the test ends. A runtime not yet handed a gate is handed one
// with room for all n.
func holdNormal(t *testing.T, rt *Runtime, n int) (release func()) {
	t.Helper()
	rt.UseGate(pfs.NewQoSGate(pfs.QoSConfig{Slots: max(n, pfs.DefaultQoSSlots)}))
	rt.mu.Lock()
	g := rt.gate
	rt.mu.Unlock()
	tickets := make([]*pfs.Ticket, n)
	for i := range tickets {
		tickets[i] = g.Enqueue(ioqueue.Normal, "", 0)
		if !tickets[i].Wait() {
			t.Fatal("gate withdrew a normal ticket")
		}
	}
	release = func() {
		for _, tk := range tickets {
			tk.Release()
		}
	}
	t.Cleanup(release)
	return release
}

func TestEstimatorDefaults(t *testing.T) {
	e := testEstimator(EstimatorConfig{BW: 118e6})
	cfg := e.Config()
	if cfg.Period <= 0 || cfg.RateFor == nil || cfg.MemBudget == 0 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestEstimatorEnvUsesCalibratedRate(t *testing.T) {
	e := testEstimator(EstimatorConfig{
		BW:      118e6,
		RateFor: func(string) float64 { return 80e6 },
	})
	env := e.Env("gaussian2d")
	// 2 cores, 1 reserved for I/O → S = 1 × 80 MB/s; compute node = 80 MB/s.
	if env.StorageRate != 80e6 {
		t.Errorf("S = %v", env.StorageRate)
	}
	if env.ComputeRate != 80e6 {
		t.Errorf("C = %v", env.ComputeRate)
	}
	if env.BW != 118e6 {
		t.Errorf("BW = %v", env.BW)
	}
}

func TestEstimatorDiscountsForNormalIOPressure(t *testing.T) {
	rt, reg := newTestRuntime(t, RuntimeConfig{
		Estimator: EstimatorConfig{
			BW:      118e6,
			RateFor: func(string) float64 { return 80e6 },
		},
	}, 0)
	e := rt.Estimator()
	base := e.Env("gaussian2d").StorageRate
	release := holdNormal(t, rt, 4) // heavy normal I/O on a 2-core node
	loaded := e.Env("gaussian2d").StorageRate
	if loaded >= base {
		t.Fatalf("S under load (%v) must drop below idle S (%v)", loaded, base)
	}
	// load = 4/2 = 2 → S = 80/(1+2).
	if want := base / 3; loaded != want {
		t.Errorf("S = %v, want %v", loaded, want)
	}
	release()
	if got := e.Env("gaussian2d").StorageRate; got != base {
		t.Errorf("S after pressure clears = %v, want %v", got, base)
	}
	// The CE reads the gate, not the data server's in-flight gauge: a
	// response still on the wire holds no I/O slot.
	reg.Gauge("data.inflight").Set(4)
	if got := e.Env("gaussian2d").StorageRate; got != base {
		t.Errorf("S with data.inflight raised and the gate empty = %v, want %v", got, base)
	}
}

// TestEstimatorProbeReflectsState: the runtime answers a probe from its
// task table — a kernel held at its first read is one busy core with its
// chunk of memory reserved, the two requests behind it are queued with
// their bytes — and once everything has run, the probe is idle again. The
// normal-I/O half is the data server's to fill.
func TestEstimatorProbeReflectsState(t *testing.T) {
	rt, store := newGatedRuntime(t, ModeAlwaysAccept, 1000)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer store.open()
	// probeUntil polls until the probe reads want, and reports the last
	// one read otherwise.
	probeUntil := func(what string, want wire.ProbeResp) {
		t.Helper()
		var p *wire.ProbeResp
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if p, _ = rt.HandleProbe(); *p == want {
				return
			}
		}
		t.Fatalf("probe %s = %+v, want %+v", what, *p, want)
	}
	idle := wire.ProbeResp{TotalCores: NodeCores, MemTotal: 1 << 30}
	held := idle
	held.BusyCores, held.MemUsed = 1, 1<<20 // one kernel chunk reserved
	for i, n := range []uint64{1000, 300, 200} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rt.HandleActive(&wire.ActiveReadReq{RequestID: uint64(i + 1), Handle: 1, Length: n, Op: "sum8"}); err != nil {
				t.Error(err)
			}
		}()
		if i > 0 {
			held.ActiveQueueLen++
			held.BytesQueued += n
		}
		probeUntil(fmt.Sprintf("after request %d", i+1), held)
	}
	store.open()
	wg.Wait()
	probeUntil("once every request has run", idle)
	// Releases never go negative.
	rt.est.MemRelease(10)
	probeUntil("after an excess release", idle)
}

func TestEstimatorUnknownOpInvalidEnv(t *testing.T) {
	e := testEstimator(EstimatorConfig{BW: 118e6, RateFor: func(string) float64 { return 0 }})
	if e.Env("mystery").Valid() {
		t.Fatal("uncalibrated op should produce an invalid env")
	}
}
