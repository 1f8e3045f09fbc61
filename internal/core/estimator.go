package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"dosas/internal/kernels"
	"dosas/internal/metrics"
)

// The storage node the model prices, the paper's: a 2-core Discfarm
// machine that keeps one core for normal I/O service, so one core's worth
// of calibrated kernel rate serves active I/O. The estimator, the QoS
// gate's kernel-core pool and the simulator all read these; kernelSlots
// alone sizes the kernel concurrency the host really grants.
const (
	NodeCores   = 2
	ActiveCores = NodeCores - 1
)

// EstimatorConfig tunes the Contention Estimator.
type EstimatorConfig struct {
	// BW is the measured storage→compute network bandwidth in
	// bytes/second (the paper's bw; 118 MB/s on Discfarm).
	BW float64
	// Period is how often the runtime's policy loop re-evaluates queued
	// and running work against the CE's current environment. Defaults to
	// 50 ms.
	Period time.Duration
	// RateFor overrides the per-core kernel rate lookup; defaults to
	// kernels.RateFor. Tests inject synthetic rates here.
	RateFor func(op string) float64
	// MemBudget bounds the kernel working memory the runtime may hold at
	// once; above memHighWater of it, dynamic scheduling bounces new
	// active requests. Defaults to 1 GiB.
	MemBudget uint64
}

// Validate rejects configurations that would make the estimator silently
// misbehave: a zero or negative bandwidth turns every cost formula into
// nonsense (Env.Valid() only catches it after the fact, per decision),
// and a negative period is always a caller bug. Zero values for the other
// fields mean "use the default" and stay legal. Validate is called on the
// raw config, before defaults are applied.
func (c EstimatorConfig) Validate() error {
	if c.BW <= 0 || math.IsNaN(c.BW) || math.IsInf(c.BW, 0) {
		return fmt.Errorf("core: estimator BW must be a positive bandwidth in bytes/s, got %v", c.BW)
	}
	if c.Period < 0 {
		return fmt.Errorf("core: estimator Period must not be negative, got %v", c.Period)
	}
	return nil
}

func (c *EstimatorConfig) applyDefaults() {
	if c.Period <= 0 {
		c.Period = 50 * time.Millisecond
	}
	if c.RateFor == nil {
		c.RateFor = kernels.RateFor
	}
	if c.MemBudget == 0 {
		c.MemBudget = 1 << 30
	}
}

// Estimator is the Contention Estimator (CE): it monitors the storage
// node's normal-I/O pressure and kernel memory use, and converts them into
// the Env the scheduling algorithm consumes. The value of S_{C,op} is
// derived from the kernel's calibrated maximum rate discounted by the
// current system environment, as in paper Section III-D.
type Estimator struct {
	cfg      EstimatorConfig
	inflight *metrics.Gauge // the data server's "data.inflight"

	mu   sync.Mutex
	used uint64 // kernel working-set bytes in use
}

// NewEstimator builds a CE over the node's metrics registry, whose
// "data.inflight" gauge (maintained by the pfs data server) supplies
// normal-I/O pressure. The configuration is validated first; a
// nonsensical config (zero bandwidth, negative period) is an error here
// rather than silent mis-scheduling later.
func NewEstimator(cfg EstimatorConfig, reg *metrics.Registry) (*Estimator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Estimator{cfg: cfg, inflight: reg.Gauge("data.inflight")}, nil
}

// Config returns the estimator's effective (defaulted) configuration.
func (e *Estimator) Config() EstimatorConfig { return e.cfg }

// MemReserve accounts kernel working memory.
func (e *Estimator) MemReserve(n uint64) {
	e.mu.Lock()
	e.used += n
	e.mu.Unlock()
}

// MemRelease undoes MemReserve.
func (e *Estimator) MemRelease(n uint64) {
	e.mu.Lock()
	e.used -= min(n, e.used)
	e.mu.Unlock()
}

// memUsed is the kernel working memory in use.
func (e *Estimator) memUsed() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.used
}

// MemPressure reports the fraction of the kernel memory budget in use
// (may exceed 1 when a transform's output buffer overshoots the budget).
func (e *Estimator) MemPressure() float64 {
	return float64(e.memUsed()) / float64(e.cfg.MemBudget)
}

// Env produces the scheduling environment for one operation, applying the
// paper's estimation rule: S_{C,op} starts from the kernel's calibrated
// maximum (ActiveCores × per-core rate) and is discounted by current
// normal-I/O pressure. A bounced request computes on one core of its own
// compute node, so C_{C,op} is the per-core rate.
func (e *Estimator) Env(op string) Env {
	maxRate := e.cfg.RateFor(op)
	return Env{
		BW:          e.cfg.BW,
		StorageRate: e.discount(maxRate * ActiveCores),
		ComputeRate: maxRate,
	}
}

// discount applies current normal-I/O pressure to a storage-side rate:
// rate / (1 + load), where load is the in-flight normal requests (the pfs
// data server's "data.inflight" gauge) per storage-node core.
func (e *Estimator) discount(rate float64) float64 {
	inflight := float64(e.inflight.Value())
	if inflight <= 0 {
		return rate
	}
	return rate / (1 + inflight/NodeCores)
}
