package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"dosas/internal/kernels"
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
// node's normal-I/O load and kernel memory use, and converts them into
// the Env the scheduling algorithm consumes. The value of S_{C,op} is
// derived from the kernel's calibrated maximum rate discounted by the
// current system environment, as in paper Section III-D.
type Estimator struct {
	cfg  EstimatorConfig
	load func() int // the node's normal-I/O load, in requests; nil reads 0

	mu   sync.Mutex
	used uint64 // kernel working-set bytes in use
}

// NewEstimator builds a CE whose normal-I/O load is read from load: the
// runtime hands over a reader of the gate its tasks wait at
// (pfs.QoSGate.NormalLoad), and nil means an idle node. The configuration
// is validated first; a nonsensical config (zero bandwidth, negative
// period) is an error here rather than silent mis-scheduling later.
func NewEstimator(cfg EstimatorConfig, load func() int) (*Estimator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	return &Estimator{cfg: cfg, load: load}, nil
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

// Env produces the scheduling environment for one operation at the node's
// current normal-I/O load (see envAt).
func (e *Estimator) Env(op string) Env {
	load := 0
	if e.load != nil {
		load = e.load()
	}
	return e.envAt(op, load)
}

// envAt produces the scheduling environment for one operation at normal-I/O
// load load, applying the paper's estimation rule: S_{C,op} starts from the
// kernel's calibrated maximum (ActiveCores × per-core rate) and is
// discounted by the load. A bounced request computes on one core of its
// own compute node, so C_{C,op} is the per-core rate. A decision reads the
// load once and prices every request in its view at it.
func (e *Estimator) envAt(op string, load int) Env {
	maxRate := e.cfg.RateFor(op)
	return Env{
		BW:          e.cfg.BW,
		StorageRate: discount(maxRate*ActiveCores, load),
		ComputeRate: maxRate,
	}
}

// discount applies normal-I/O load to a storage-side rate:
// rate / (1 + load/NodeCores), where load is the node's I/O slots taken
// plus the normal requests queued for one (pfs.QoSGate.NormalLoad).
func discount(rate float64, load int) float64 {
	if load <= 0 {
		return rate
	}
	return rate / (1 + float64(load)/NodeCores)
}
