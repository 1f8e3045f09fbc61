package core

import (
	"testing"

	"dosas/internal/ioqueue"
	"dosas/internal/metrics"
)

func testEstimator(cfg EstimatorConfig) (*Estimator, *ioqueue.Queue, *metrics.Registry) {
	q := ioqueue.New()
	reg := metrics.NewRegistry()
	e, err := NewEstimator(cfg, q, reg)
	if err != nil {
		panic(err)
	}
	return e, q, reg
}

func TestEstimatorDefaults(t *testing.T) {
	e, _, _ := testEstimator(EstimatorConfig{BW: 118e6})
	cfg := e.Config()
	if cfg.Period <= 0 || cfg.RateFor == nil || cfg.MemBudget == 0 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestEstimatorEnvUsesCalibratedRate(t *testing.T) {
	e, _, _ := testEstimator(EstimatorConfig{
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
	e, _, reg := testEstimator(EstimatorConfig{
		BW:      118e6,
		RateFor: func(string) float64 { return 80e6 },
	})
	base := e.Env("gaussian2d").StorageRate
	reg.Gauge("data.inflight").Set(4) // heavy normal I/O on a 2-core node
	loaded := e.Env("gaussian2d").StorageRate
	if loaded >= base {
		t.Fatalf("S under load (%v) must drop below idle S (%v)", loaded, base)
	}
	// load = 4/2 = 2 → S = 80/(1+2).
	if want := base / 3; loaded != want {
		t.Errorf("S = %v, want %v", loaded, want)
	}
	reg.Gauge("data.inflight").Set(0)
	if got := e.Env("gaussian2d").StorageRate; got != base {
		t.Errorf("S after pressure clears = %v, want %v", got, base)
	}
}

func TestEstimatorProbeReflectsState(t *testing.T) {
	e, q, _ := testEstimator(EstimatorConfig{BW: 118e6})
	q.Push(ioqueue.Item{ID: 1, Class: ioqueue.Active, Bytes: 100})
	q.Push(ioqueue.Item{ID: 2, Class: ioqueue.Normal, Bytes: 50})
	e.MemReserve(4096)
	p := e.Probe()
	if p.ActiveQueueLen != 1 || p.QueueLen != 1 {
		t.Errorf("queue lens = %d, %d", p.ActiveQueueLen, p.QueueLen)
	}
	if p.TotalCores != NodeCores {
		t.Errorf("total cores = %d", p.TotalCores)
	}
	if p.MemUsed != 4096 || p.BytesQueued != 150 {
		t.Errorf("mem = %d, queued = %d", p.MemUsed, p.BytesQueued)
	}
	e.MemRelease(4096)
	if p = e.Probe(); p.MemUsed != 0 {
		t.Errorf("after release: %+v", p)
	}
	// Releases never go negative.
	e.MemRelease(10)
	if p = e.Probe(); p.MemUsed != 0 {
		t.Errorf("floor violated: %+v", p)
	}
}

func TestEstimatorUnknownOpInvalidEnv(t *testing.T) {
	e, _, _ := testEstimator(EstimatorConfig{BW: 118e6, RateFor: func(string) float64 { return 0 }})
	if e.Env("mystery").Valid() {
		t.Fatal("uncalibrated op should produce an invalid env")
	}
}
