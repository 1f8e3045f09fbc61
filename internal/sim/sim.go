// Package sim is the discrete-event cluster simulator that stands in for
// the paper's 16-node Discfarm testbed. It models one storage node and its
// client population with the resource structure the paper's experiments
// expose:
//
//   - the storage node's NIC is a serial resource (transfers to different
//     compute nodes share the 1 GbE link — 118 MB/s measured);
//   - the storage node's kernel capacity is its core.ActiveCores: the
//     model's node has core.NodeCores = 2 cores, one reserved for I/O
//     service, as in the Contention Estimator;
//   - each request comes from its own compute-node process, so bounced
//     requests compute in parallel on the client side.
//
// Calibrated with the paper's Table III rates, the simulator reproduces
// every figure of the evaluation at full paper scale (up to 64 concurrent
// requests × 1 GB each), which no single host could materialise with real
// bytes. The same core scheduling code (core.MaxGain, core.Env) drives the
// simulated DOSAS scheme, so the simulation exercises the production
// decision logic, not a reimplementation.
package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"dosas/internal/core"
	"dosas/internal/kernels"
)

// Noise models the run-to-run variation the paper reports (network
// bandwidth ranged 111–120 MB/s; OS scheduling adds per-request latency).
// A zero Noise simulates the idealised model.
type Noise struct {
	// BWLow/BWHigh bound the uniformly drawn per-run bandwidth in
	// bytes/second. Zero values disable bandwidth jitter.
	BWLow, BWHigh float64
	// RateJitter is the relative half-width of per-run kernel-rate
	// jitter (0.05 = ±5 %).
	RateJitter float64
	// OverheadLow/High bound the uniformly drawn per-request fixed
	// overhead in seconds (task scheduling, connection setup).
	OverheadLow, OverheadHigh float64
}

// DiscfarmNoise is the variation observed on the paper's testbed.
func DiscfarmNoise() Noise {
	return Noise{
		BWLow: 111e6, BWHigh: 120e6,
		RateJitter:  0.08,
		OverheadLow: 0.01, OverheadHigh: 0.08,
	}
}

// Config describes one simulated experiment point: n concurrent requests
// of one operation against a single storage node, as in the paper's
// Section IV workloads.
type Config struct {
	// Scheme selects TS, AS, or DOSAS behaviour.
	Scheme core.Scheme
	// Requests is the number of concurrent I/O requests (the paper's
	// "I/Os per storage node", 1–64, when StorageNodes is 1; the total
	// across nodes otherwise).
	Requests int
	// StorageNodes simulates a multi-node deployment: requests are
	// spread over this many independent storage nodes (each with its own
	// cores and NIC) and the makespan is the slowest node's. Default 1 —
	// the paper's per-storage-node methodology.
	StorageNodes int
	// Skew biases request placement toward node 0: 0 = balanced
	// round-robin, 1 = everything on node 0. Models the hot-spot
	// contention of the paper's Figure 1 multi-application scenario.
	Skew float64
	// BytesPerRequest is d_i (the paper sweeps 128 MB–1 GB).
	BytesPerRequest uint64
	// Op names the kernel. Its result size comes from the kernels
	// registry, and so do its calibrated rates unless overridden below.
	Op string
	// StorageRatePerCore overrides the kernel's per-core rate on storage
	// nodes (bytes/s). Zero uses kernels.RateFor(Op).
	StorageRatePerCore float64
	// ComputeRatePerCore overrides the compute-node per-core rate.
	// Zero uses kernels.RateFor(Op).
	ComputeRatePerCore float64
	// BW is the nominal network bandwidth (default 118 MB/s).
	BW float64
	// ArrivalStagger separates request arrivals (default 1 ms), matching
	// near-simultaneous benchmark launch.
	ArrivalStagger float64
	// Migration enables DOSAS's interrupt-and-migrate: on each arrival
	// the whole active set is re-solved and requests flagged "bounce"
	// move to the normal path (default true — the paper's behaviour).
	// Only meaningful for SchemeDOSAS.
	Migration *bool
	// Noise adds run-to-run variation; Seed makes it reproducible.
	Noise Noise
	Seed  int64
}

func (c *Config) applyDefaults() error {
	if c.Requests <= 0 {
		return fmt.Errorf("sim: Requests must be positive")
	}
	if c.StorageNodes <= 0 {
		c.StorageNodes = 1
	}
	if c.Skew < 0 || c.Skew > 1 {
		return fmt.Errorf("sim: Skew must be in [0, 1]")
	}
	if c.BytesPerRequest == 0 {
		return fmt.Errorf("sim: BytesPerRequest must be positive")
	}
	if c.Op == "" {
		c.Op = "sum8"
	}
	if c.StorageRatePerCore == 0 {
		c.StorageRatePerCore = kernels.RateFor(c.Op)
	}
	if c.ComputeRatePerCore == 0 {
		c.ComputeRatePerCore = kernels.RateFor(c.Op)
	}
	if c.StorageRatePerCore <= 0 || c.ComputeRatePerCore <= 0 {
		return fmt.Errorf("sim: no calibrated rate for op %q", c.Op)
	}
	if c.BW == 0 {
		c.BW = discfarmBW
	}
	if c.ArrivalStagger == 0 {
		c.ArrivalStagger = 1e-3
	}
	if c.Migration == nil {
		on := true
		c.Migration = &on
	}
	return nil
}

// discfarmBW is the paper's measured network bandwidth, 118 MB/s.
const discfarmBW = 118e6

// env is the environment the simulated Contention Estimator prices with:
// the calibrated (not the jittered) rates, the node's ActiveCores serving
// kernels, one compute core per bounced request.
func (c Config) env() core.Env {
	return core.Env{BW: c.BW, StorageRate: c.StorageRatePerCore * core.ActiveCores, ComputeRate: c.ComputeRatePerCore}
}

// resultSize is h(d) for a bytes-long request of op, from the kernel
// configured with defaultSimParams; 8 bytes when op cannot say.
func resultSize(op string, bytes uint64) uint64 {
	k, err := kernels.Start(op, defaultSimParams(op), nil)
	if err != nil {
		return 8
	}
	return k.ResultSize(bytes)
}

// defaultSimParams supplies kernel parameters good enough for result-size
// estimation.
func defaultSimParams(op string) []byte {
	switch op {
	case "gaussian2d":
		return kernels.GaussianParams(4096, false)
	case "count":
		return []byte("needle")
	case "downsample":
		return kernels.DownsampleParams(16)
	case "kmeans1d":
		return kernels.KMeansParams(4, 0, 256)
	default:
		return nil
	}
}

// Metrics is the outcome of one simulated run.
type Metrics struct {
	// Makespan is the total execution time of all requests in seconds —
	// the quantity the paper's execution-time figures plot.
	Makespan float64
	// PerRequest holds each request's completion time.
	PerRequest []float64
	// Bandwidth is the achieved aggregate rate: total requested bytes
	// divided by makespan (the paper's Figures 11–12 metric).
	Bandwidth float64
	// RawBytesMoved counts bytes shipped over the storage node's NIC
	// (request data for bounced work, results for active work).
	RawBytesMoved uint64
	// Accepted, Bounced, Migrated count request dispositions.
	Accepted, Bounced, Migrated int
}

// request is the simulator's view of one I/O.
type request struct {
	id      int
	arrival float64
	bytes   uint64
	result  uint64
	// disposition
	active   bool
	migrated bool
	// completion
	done float64
}

// Run simulates one experiment point.
func Run(cfg Config) (Metrics, error) {
	if err := cfg.applyDefaults(); err != nil {
		return Metrics{}, err
	}
	if cfg.Scheme != core.SchemeAS && cfg.Scheme != core.SchemeTS && cfg.Scheme != core.SchemeDOSAS {
		return Metrics{}, fmt.Errorf("sim: unknown scheme %v", cfg.Scheme)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Build the request population and place each request on a storage
	// node: balanced round-robin, biased toward node 0 by Skew.
	reqs := make([]*request, cfg.Requests)
	perNode := make([][]*request, cfg.StorageNodes)
	result := resultSize(cfg.Op, cfg.BytesPerRequest)
	for i := range reqs {
		reqs[i] = &request{
			id:      i,
			arrival: float64(i) * cfg.ArrivalStagger,
			bytes:   cfg.BytesPerRequest,
			result:  result,
		}
		node := i % cfg.StorageNodes
		if cfg.StorageNodes > 1 && cfg.Skew > 0 && rng.Float64() < cfg.Skew {
			node = 0
		}
		perNode[node] = append(perNode[node], reqs[i])
	}

	// Each storage node (its cores and its NIC) runs independently; the
	// experiment finishes when the slowest node does.
	m := Metrics{PerRequest: make([]float64, len(reqs))}
	for _, nodeReqs := range perNode {
		if len(nodeReqs) == 0 {
			continue
		}
		nm, err := runNode(cfg, nodeReqs, rng)
		if err != nil {
			return Metrics{}, err
		}
		m.RawBytesMoved += nm.RawBytesMoved
		m.Migrated += nm.Migrated
		m.Accepted += nm.Accepted
		m.Bounced += nm.Bounced
		if nm.Makespan > m.Makespan {
			m.Makespan = nm.Makespan
		}
	}
	for i, r := range reqs {
		m.PerRequest[i] = r.done
	}
	if m.Makespan > 0 {
		m.Bandwidth = float64(uint64(cfg.Requests)*cfg.BytesPerRequest) / m.Makespan
	}
	return m, nil
}

// runNode simulates one storage node serving its share of the requests.
func runNode(cfg Config, reqs []*request, rng *rand.Rand) (Metrics, error) {
	// Per-node environmental draws.
	bw := cfg.BW
	if cfg.Noise.BWHigh > cfg.Noise.BWLow && cfg.Noise.BWLow > 0 {
		bw = cfg.Noise.BWLow + rng.Float64()*(cfg.Noise.BWHigh-cfg.Noise.BWLow)
	}
	jitter := func(rate float64) float64 {
		if cfg.Noise.RateJitter <= 0 {
			return rate
		}
		return rate * (1 + (rng.Float64()*2-1)*cfg.Noise.RateJitter)
	}
	storageRate := jitter(cfg.StorageRatePerCore)
	computeRate := jitter(cfg.ComputeRatePerCore)
	overhead := func() float64 {
		if cfg.Noise.OverheadHigh <= cfg.Noise.OverheadLow {
			return 0
		}
		return cfg.Noise.OverheadLow + rng.Float64()*(cfg.Noise.OverheadHigh-cfg.Noise.OverheadLow)
	}

	// Phase 1: dispositions.
	var migrated int
	switch cfg.Scheme {
	case core.SchemeAS:
		for _, r := range reqs {
			r.active = true
		}
	case core.SchemeTS:
		for _, r := range reqs {
			r.active = false
		}
	case core.SchemeDOSAS:
		// The scheduler decides from its *calibrated* rates and nominal
		// bandwidth — it cannot observe this run's jitter. The mismatch
		// between estimate and reality is what produces the paper's
		// Table IV misjudgments at the break-even boundary.
		migrated = decideDOSAS(cfg, reqs)
	}

	// Phase 2: timing against the resource model.
	cores := newPool(core.ActiveCores)
	nic := newPool(1)

	// Active requests occupy storage cores FCFS in arrival order, then
	// ship their (small) results over the NIC.
	type nicJob struct {
		ready float64
		dur   float64
		r     *request
		final bool // completion occurs at NIC end (active result)
	}
	var nicJobs []nicJob
	var rawMoved uint64
	for _, r := range reqs {
		if !r.active {
			continue
		}
		_, end := cores.schedule(r.arrival, float64(r.bytes)/storageRate+overhead())
		nicJobs = append(nicJobs, nicJob{ready: end, dur: float64(r.result) / bw, r: r, final: true})
		rawMoved += r.result
	}
	// Normal (bounced) requests ship raw data over the NIC, then compute
	// in parallel on their own compute nodes.
	for _, r := range reqs {
		if r.active {
			continue
		}
		nicJobs = append(nicJobs, nicJob{ready: r.arrival, dur: float64(r.bytes)/bw + overhead(), r: r})
		rawMoved += r.bytes
	}
	// The NIC serves transfers FCFS by readiness.
	sort.SliceStable(nicJobs, func(i, j int) bool { return nicJobs[i].ready < nicJobs[j].ready })
	for _, j := range nicJobs {
		_, end := nic.schedule(j.ready, j.dur)
		if j.final {
			j.r.done = end
		} else {
			j.r.done = end + float64(j.r.bytes)/computeRate
		}
	}

	m := Metrics{RawBytesMoved: rawMoved, Migrated: migrated}
	for _, r := range reqs {
		if r.done > m.Makespan {
			m.Makespan = r.done
		}
		if r.active {
			m.Accepted++
		} else {
			m.Bounced++
		}
	}
	return m, nil
}

// decideDOSAS replays the runtime's admission logic over the arrival
// sequence: each newcomer is admitted or bounced by the solver given the
// set of not-yet-finished active requests; with migration enabled, already
// admitted requests flagged "bounce" by the re-solve move to the normal
// path (arrivals are near-simultaneous, so their progress is negligible —
// the migrated remainder is their full size). Returns the migration count.
func decideDOSAS(cfg Config, reqs []*request) int {
	env := cfg.env()
	migrated := 0
	var activeSet []*request
	for _, r := range reqs {
		view := make([]core.Request, 0, len(activeSet)+1)
		for _, a := range activeSet {
			view = append(view, core.Request{ID: uint64(a.id + 1), Bytes: a.bytes, ResultBytes: a.result})
		}
		view = append(view, core.Request{ID: uint64(r.id + 1), Bytes: r.bytes, ResultBytes: r.result})
		assignment := core.MaxGain{}.Solve(view, env)
		if assignment[len(view)-1] {
			r.active = true
			activeSet = append(activeSet, r)
		}
		if *cfg.Migration {
			// Bounce previously admitted requests the policy now rejects.
			keep := activeSet[:0]
			for i, a := range activeSet {
				if a == r || assignment[i] {
					keep = append(keep, a)
					continue
				}
				a.active = false
				a.migrated = true
				migrated++
			}
			activeSet = keep
		}
	}
	return migrated
}
