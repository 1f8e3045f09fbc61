package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"dosas/internal/core"
	"dosas/internal/kernels"
	"dosas/internal/workload"
)

// StreamConfig parameterises a trace-driven simulation: an arbitrary
// request stream (mixed applications, operations, sizes, arrival times,
// and normal/active classes — the paper's Figure 1 scenario) played
// against one storage node.
type StreamConfig struct {
	// Scheme selects TS, AS, or DOSAS handling of the stream's active
	// requests. Normal requests always transfer raw data.
	Scheme core.Scheme
	// Noise adds run-to-run variation; Seed makes it reproducible.
	Noise Noise
	Seed  int64
}

// StreamMetrics is the outcome of a trace-driven run.
type StreamMetrics struct {
	// Makespan is when the last request finishes (seconds from stream
	// start).
	Makespan float64
	// MeanLatency and MaxLatency are per-request completion − arrival.
	MeanLatency float64
	MaxLatency  float64
	// MeanNormalLatency isolates the plain (non-active) reads — the
	// traffic the paper's priority rule protects.
	MeanNormalLatency float64
	// RawBytesMoved counts bytes crossing the storage node's NIC.
	RawBytesMoved uint64
	// Accepted and Bounced count the active requests' dispositions.
	Accepted, Bounced int
}

// streamReq tracks one in-flight stream request.
type streamReq struct {
	r     workload.Request
	start float64 // core start (accepted actives)
	end   float64 // core end
	done  float64
}

// RunStream plays a request stream against the storage-node model. Unlike
// Run, arrivals are spread in time, operations and sizes vary per request,
// and plain (normal) reads share the node with active I/O. DOSAS admission
// re-solves at every arrival using each running kernel's remaining bytes;
// already running kernels are not migrated in stream mode.
func RunStream(cfg StreamConfig, reqs []workload.Request) (StreamMetrics, error) {
	if len(reqs) == 0 {
		return StreamMetrics{}, fmt.Errorf("sim: empty request stream")
	}
	if cfg.Scheme != core.SchemeAS && cfg.Scheme != core.SchemeTS && cfg.Scheme != core.SchemeDOSAS {
		return StreamMetrics{}, fmt.Errorf("sim: unknown scheme %v", cfg.Scheme)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	bw := discfarmBW
	if cfg.Noise.BWHigh > cfg.Noise.BWLow && cfg.Noise.BWLow > 0 {
		bw = cfg.Noise.BWLow + rng.Float64()*(cfg.Noise.BWHigh-cfg.Noise.BWLow)
	}
	jitter := 1.0
	if cfg.Noise.RateJitter > 0 {
		jitter = 1 + (rng.Float64()*2-1)*cfg.Noise.RateJitter
	}
	overhead := func() float64 {
		if cfg.Noise.OverheadHigh <= cfg.Noise.OverheadLow {
			return 0
		}
		return cfg.Noise.OverheadLow + rng.Float64()*(cfg.Noise.OverheadHigh-cfg.Noise.OverheadLow)
	}

	storageRate := func(op string) float64 {
		return kernels.RateFor(op) * core.ActiveCores * jitter
	}
	computeRate := func(op string) float64 {
		return kernels.RateFor(op) * jitter
	}

	ordered := make([]*streamReq, len(reqs))
	for i := range reqs {
		ordered[i] = &streamReq{r: reqs[i]}
	}
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].r.ArrivalOffset < ordered[j].r.ArrivalOffset
	})

	cores := newPool(core.ActiveCores)
	nic := newPool(1)
	type nicJob struct {
		ready   float64
		dur     float64
		sr      *streamReq
		compute float64 // client compute appended after transfer (0 for active results)
	}
	var nicJobs []nicJob
	var accepted []*streamReq // active requests running or queued on cores
	var m StreamMetrics

	for _, sr := range ordered {
		r := sr.r
		t := r.ArrivalOffset
		if !r.Active {
			// Plain read: raw transfer, no kernel anywhere.
			nicJobs = append(nicJobs, nicJob{ready: t, dur: float64(r.Bytes)/bw + overhead(), sr: sr})
			m.RawBytesMoved += r.Bytes
			continue
		}
		if kernels.RateFor(r.Op) <= 0 {
			return StreamMetrics{}, fmt.Errorf("sim: no calibrated rate for op %q", r.Op)
		}
		runActive := true
		switch cfg.Scheme {
		case core.SchemeTS:
			runActive = false
		case core.SchemeDOSAS:
			runActive = streamAdmit(accepted, sr, t)
		}
		if runActive {
			start, end := cores.schedule(t, float64(r.Bytes)/storageRate(r.Op)+overhead())
			sr.start, sr.end = start, end
			res := resultSize(r.Op, r.Bytes)
			nicJobs = append(nicJobs, nicJob{ready: end, dur: float64(res) / bw, sr: sr})
			m.RawBytesMoved += res
			accepted = append(accepted, sr)
			m.Accepted++
		} else {
			nicJobs = append(nicJobs, nicJob{
				ready:   t,
				dur:     float64(r.Bytes)/bw + overhead(),
				sr:      sr,
				compute: float64(r.Bytes) / computeRate(r.Op),
			})
			m.RawBytesMoved += r.Bytes
			m.Bounced++
		}
	}

	sort.SliceStable(nicJobs, func(i, j int) bool { return nicJobs[i].ready < nicJobs[j].ready })
	for _, j := range nicJobs {
		_, end := nic.schedule(j.ready, j.dur)
		j.sr.done = end + j.compute
	}

	var latSum, normalSum float64
	var normalN int
	for _, sr := range ordered {
		lat := sr.done - sr.r.ArrivalOffset
		latSum += lat
		if lat > m.MaxLatency {
			m.MaxLatency = lat
		}
		if sr.done > m.Makespan {
			m.Makespan = sr.done
		}
		if !sr.r.Active {
			normalSum += lat
			normalN++
		}
	}
	m.MeanLatency = latSum / float64(len(ordered))
	if normalN > 0 {
		m.MeanNormalLatency = normalSum / float64(normalN)
	}
	return m, nil
}

// streamAdmit replays DOSAS admission at arrival time t: solve over the
// unfinished accepted actives (by remaining bytes) plus the newcomer.
func streamAdmit(accepted []*streamReq, sr *streamReq, t float64) bool {
	env := core.Env{BW: discfarmBW}
	var view []core.Request
	for i, a := range accepted {
		if a.end <= t {
			continue // finished
		}
		frac := 1.0
		if a.start < t && a.end > a.start {
			frac = (a.end - t) / (a.end - a.start)
		}
		remaining := uint64(float64(a.r.Bytes) * frac)
		if remaining == 0 {
			continue
		}
		view = append(view, core.Request{
			ID:          uint64(i + 1),
			Bytes:       remaining,
			ResultBytes: resultSize(a.r.Op, remaining),
			StorageRate: kernels.RateFor(a.r.Op) * core.ActiveCores,
			ComputeRate: kernels.RateFor(a.r.Op),
		})
	}
	newID := uint64(len(accepted) + 1000)
	view = append(view, core.Request{
		ID:          newID,
		Bytes:       sr.r.Bytes,
		ResultBytes: resultSize(sr.r.Op, sr.r.Bytes),
		StorageRate: kernels.RateFor(sr.r.Op) * core.ActiveCores,
		ComputeRate: kernels.RateFor(sr.r.Op),
	})
	assignment := core.MaxGain{}.Solve(view, env)
	return assignment[len(view)-1]
}
