package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dosas"
)

// cluster is what a workload needs from a running deployment. The
// untraced pass backs it with dosas.StartCluster — the wiring users run —
// and the traced pass with the shim assembly in assemble.go.
type cluster interface {
	connect(o dosas.ClientOptions) (*dosas.FS, error)
	stats() map[string]dosas.StatsSnapshot
	tenants() []dosas.TenantReport
	decisions() dosas.DecisionMetrics
	close()
}

type plainCluster struct{ c *dosas.Cluster }

func (p plainCluster) connect(o dosas.ClientOptions) (*dosas.FS, error) {
	return p.c.ConnectClient(o)
}
func (p plainCluster) stats() map[string]dosas.StatsSnapshot { return p.c.Stats() }
func (p plainCluster) tenants() []dosas.TenantReport         { return p.c.Tenants() }
func (p plainCluster) decisions() dosas.DecisionMetrics      { return p.c.DecisionMetrics() }
func (p plainCluster) close()                                { p.c.Close() }

// env is what one set-up of one workload runs in.
type env struct {
	seed int64
	dir  string  // scratch directory this set-up owns
	tr   *tracer // nil on the untraced pass
	n    int     // clusters started so far, for data-dir names
}

// start boots one cluster with its data directory under e.dir. TCP
// loopback and the disk-backed extent store are forced on; every other
// option keeps the caller's value, so defaults stay the program's own.
func (e *env) start(o dosas.Options) (cluster, error) {
	o.TCP = true
	o.DataDir = filepath.Join(e.dir, fmt.Sprintf("cluster-%d", e.n))
	e.n++
	if err := os.MkdirAll(o.DataDir, 0o755); err != nil {
		return nil, err
	}
	if e.tr != nil {
		return assemble(o, e.tr)
	}
	c, err := dosas.StartCluster(o)
	if err != nil {
		return nil, err
	}
	return plainCluster{c}, nil
}

// sample is one completed operation of one load stream.
type sample struct {
	lat   int64  // ns
	cycle uint32 // index into window.cycles
	kind  uint8
}

// stream is one closed-loop client: it sends its next operation when the
// previous one returns. step runs one operation — fully verified when
// full is set (warm-up), else on the fixed 1-in-32 sample — and reports
// which kind it was; a failed, refused or wrong-result operation returns
// an error.
type stream interface {
	step(full bool) (kind uint8, err error)
}

// sampleEvery is the fixed share of timed reads compared in full.
const sampleEvery = 32

// instance is one set-up workload: its clusters are up, its files
// preloaded and its buffers allocated.
type instance interface {
	// streams returns the load streams for a pass with the given number
	// of clients (workloads with a fixed shape ignore it).
	streams(clients int) []stream
	// reference returns the streams of the workload's reference load:
	// raw loopback TCP exchanges of the primary operation's shape, from
	// as many clients. Nil when the workload carries its own reference
	// (active_sched compares DOSAS with the static schemes).
	reference(clients int) []stream
	// report turns a timed window into the workload's end-to-end metrics.
	report(w *window) map[string]Summary
	// verify re-reads every range the streams wrote and compares it,
	// outside timing; it returns how many checks it made and how many
	// failed.
	verify() (checked, failed int64)
	clusters() []cluster
	close()
}

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	// clients is the closed-loop client count of the untraced pass; the
	// traced pass runs tracedClients.
	clients, tracedClients int
	// tenants names the tenant of each stream when streams differ by
	// tenant; the traced pass tells their requests apart by it.
	tenants []string
	setup   func(e *env) (instance, error)
}

// The host this runs on is shared: a pure ALU loop's speed varies by a
// factor of two over a minute, so wall-clock rates do not repeat between
// runs. Within a slice the load therefore alternates with a reference
// load — raw loopback TCP exchanges of the same shape, which the host
// slows down by about as much — in short phases, and the gated metrics
// are the ratios of the two. Absolute rates are still reported.
const (
	workPhase = 100 * time.Millisecond
	refPhase  = 50 * time.Millisecond
)

// cycle is one phase of the load followed, when the workload has a
// reference, by one phase of the reference: the wall time each took.
type cycle struct {
	slice         int
	busy, refBusy time.Duration
}

// window is the samples of one timed run, cut into numSlices consecutive
// slices of one or more cycles each. Rates divide by the cycles' busy
// time, so the reference's phases do not count against the load.
type window struct {
	streams  [][]sample
	refs     [][]sample
	cycles   []cycle
	attempts int64
	failed   int64
	// What the process spent during the load's phases only, so the
	// reference load does not count against the program.
	proc procUsage
}

// ops is how many operations of the load completed.
func (w *window) ops() int {
	n := 0
	for _, ss := range w.streams {
		n += len(ss)
	}
	return n
}

// match selects samples by kind.
type match func(kind uint8) bool

func allOps(uint8) bool { return true }

func kindIs(k uint8) match { return func(kind uint8) bool { return kind == k } }

// perCycle counts the matching samples of each cycle.
func (w *window) perCycle(logs [][]sample, m match) []float64 {
	counts := make([]float64, len(w.cycles))
	for _, ss := range logs {
		for _, s := range ss {
			if m(s.kind) {
				counts[s.cycle]++
			}
		}
	}
	return counts
}

// rate is the per-slice completion rate of the load's matching
// operations, each weighted by weight (1 for ops/s, bytes÷1e6 for MB/s):
// the slice's operations over the busy time of its cycles.
func (w *window) rate(unit string, m match, weight float64) Summary {
	var counts [numSlices]float64
	var busy [numSlices]time.Duration
	for c, n := range w.perCycle(w.streams, m) {
		counts[w.cycles[c].slice] += n
		busy[w.cycles[c].slice] += w.cycles[c].busy
	}
	vals := make([]float64, numSlices)
	least := counts[0]
	for i, n := range counts {
		least = min(least, n)
		vals[i] = n * weight / busy[i].Seconds()
	}
	return summarize(unit, vals, int(least))
}

// latencyOf is the per-slice q-quantile of the matching samples'
// latencies in µs; ok is false when some slice has no sample at all. A
// tail quantile with fewer than ten samples beyond it in some slice is
// still computed, so the value stays continuous as throughput moves, but
// carries a note and -compare will not call it resolved.
func (w *window) latencyOf(logs [][]sample, m match, q float64) (s Summary, ok bool) {
	per := make([][]int64, numSlices)
	for _, ss := range logs {
		for _, s := range ss {
			if m(s.kind) {
				slice := w.cycles[s.cycle].slice
				per[slice] = append(per[slice], s.lat)
			}
		}
	}
	vals := make([]float64, numSlices)
	least := len(per[0])
	for i, lats := range per {
		if len(lats) == 0 {
			return Summary{}, false
		}
		least = min(least, len(lats))
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		vals[i] = float64(percentile(lats, q)) / 1e3
	}
	s = summarize("us", vals, least)
	if q > 0.5 && !supportsPercentile(least, q) {
		s.Note = "fewer than 10 samples beyond the percentile in some slice"
	}
	return s, true
}

// putLatency adds the quantile under name unless a slice had no sample.
func (w *window) putLatency(out map[string]Summary, name string, m match, q float64) {
	if s, ok := w.latencyOf(w.streams, m, q); ok {
		out[name] = s
	}
}

// cycleMedians is the median latency, in ns, of each cycle's matching
// samples; 0 for a cycle without any.
func (w *window) cycleMedians(logs [][]sample, m match) []float64 {
	per := make([][]float64, len(w.cycles))
	for _, ss := range logs {
		for _, s := range ss {
			if m(s.kind) {
				per[s.cycle] = append(per[s.cycle], float64(s.lat))
			}
		}
	}
	out := make([]float64, len(per))
	for c, lats := range per {
		if len(lats) > 0 {
			out[c] = median(lats)
		}
	}
	return out
}

// versus pairs a kind of the load's operations with its counterpart in
// the reference load. work is how much one operation of each side does
// (bytes, or 1 to count operations), so rates compare like with like.
type versus struct {
	load, ref         match
	loadWork, refWork float64
}

// opsVersus pairs operations one to one.
func opsVersus(load, ref match) versus { return versus{load, ref, 1, 1} }

// putRelative adds the two gated metrics. Both are formed per cycle —
// the load's phase against the reference's phase right after it — and a
// slice's value is the median over its cycles, so a phase the host
// stalled does not carry the slice. rel_throughput is the load's work
// rate over the reference's, as the geometric mean over the thr pairs
// (streams that compete for the same cores trade throughput with each
// other; their product does not move when they do). rel_latency is the
// median latency of lat's operations over that of its exchanges.
func (w *window) putRelative(out map[string]Summary, lat versus, thr ...versus) {
	var thrs, lats [numSlices][]float64
	quot := make([]float64, len(w.cycles))
	for c := range quot {
		quot[c] = 1
	}
	for _, v := range thr {
		loads, refs := w.perCycle(w.streams, v.load), w.perCycle(w.refs, v.ref)
		for c, cy := range w.cycles {
			// A cycle in which either side completed nothing says
			// nothing about their ratio; 0 drops it below.
			quot[c] *= (loads[c] * v.loadWork / cy.busy.Seconds()) / (refs[c] * v.refWork / cy.refBusy.Seconds())
		}
	}
	loadLat, refLat := w.cycleMedians(w.streams, lat.load), w.cycleMedians(w.refs, lat.ref)
	for c, cy := range w.cycles {
		if q := quot[c]; q > 0 && !math.IsInf(q, 0) && !math.IsNaN(q) {
			thrs[cy.slice] = append(thrs[cy.slice], math.Pow(q, 1/float64(len(thr))))
		}
		if loadLat[c] > 0 && refLat[c] > 0 {
			lats[cy.slice] = append(lats[cy.slice], loadLat[c]/refLat[c])
		}
	}
	overCycles := func(per [numSlices][]float64) Summary {
		vals := make([]float64, numSlices)
		least := len(per[0])
		for i, qs := range per {
			least = min(least, len(qs))
			vals[i] = median(qs)
		}
		return summarize("ratio", vals, least)
	}
	out["rel_throughput"] = overCycles(thrs)
	out["rel_latency"] = overCycles(lats)
}

// drive runs the streams closed-loop for dur, in numSlices consecutive
// slices, and returns what they did. When refs is non-empty each slice
// alternates workPhase of the load with refPhase of the reference; a
// phase ends when every stream has finished the operation it had in
// flight at the deadline. With full set every operation is verified
// (warm-up); otherwise each stream's own 1-in-32 sample is. root, when
// non-nil, brackets every operation of load stream i — the traced pass's
// root span.
func drive(streams, refs []stream, dur time.Duration, full bool, root func(stream int, op func())) *window {
	w := &window{streams: make([][]sample, len(streams)), refs: make([][]sample, len(refs))}
	var attempts, failed atomic.Int64
	phase := func(sts []stream, logs [][]sample, deadline time.Time, root func(int, func())) time.Duration {
		start := time.Now()
		cycle := uint32(len(w.cycles))
		var wg sync.WaitGroup
		for i, st := range sts {
			wg.Add(1)
			go func(i int, st stream) {
				defer wg.Done()
				for {
					t0 := time.Now()
					if !t0.Before(deadline) {
						return
					}
					var kind uint8
					var err error
					if root != nil {
						root(i, func() { kind, err = st.step(full) })
					} else {
						kind, err = st.step(full)
					}
					lat := time.Since(t0)
					attempts.Add(1)
					if err != nil {
						if failed.Add(1) <= 3 {
							fmt.Fprintf(os.Stderr, "bench: stream %d: operation failed: %v\n", i, err)
						}
						continue
					}
					logs[i] = append(logs[i], sample{lat: int64(lat), cycle: cycle, kind: kind})
				}
			}(i, st)
		}
		wg.Wait()
		return time.Since(start)
	}
	start := time.Now()
	for slice := 0; slice < numSlices; slice++ {
		sliceEnd := start.Add(dur * time.Duration(slice+1) / numSlices)
		for now := time.Now(); now.Before(sliceEnd); now = time.Now() {
			deadline := sliceEnd
			if len(refs) > 0 {
				deadline = now.Add(workPhase)
			}
			cy := cycle{slice: slice}
			before := readProcUsage()
			cy.busy = phase(streams, w.streams, deadline, root)
			w.proc.add(readProcUsage().sub(before))
			if len(refs) > 0 {
				cy.refBusy = phase(refs, w.refs, time.Now().Add(refPhase), nil)
			}
			w.cycles = append(w.cycles, cy)
		}
	}
	w.attempts, w.failed = attempts.Load(), failed.Load()
	return w
}

// stuckOps counts what a cluster still reports in flight or queued: the
// servers' inflight and queue gauges and the tenant tables' live counts.
func stuckOps(c cluster, report func(what string, n int64)) int64 {
	var stuck int64
	for node, snap := range c.stats() {
		for name, v := range snap.Gauges {
			if v != 0 && (strings.HasSuffix(name, "inflight") || strings.Contains(name, "queue")) {
				stuck += v
				report(node+" "+name, v)
			}
		}
	}
	for _, rep := range c.tenants() {
		for _, u := range rep.Usage {
			if n := u.Queued + u.Inflight; n != 0 {
				stuck += n
				report(rep.Node+" tenant "+u.Tenant+" queued+inflight", n)
			}
		}
	}
	return stuck
}

// drained polls every cluster until nothing is in flight or queued, for
// at most two seconds, and returns how many operations were still stuck
// at the end; each of them counts as failed.
func drained(cs []cluster) int64 {
	deadline := time.Now().Add(2 * time.Second)
	for {
		var stuck int64
		for _, c := range cs {
			stuck += stuckOps(c, func(string, int64) {})
		}
		if stuck == 0 {
			return 0
		}
		if time.Now().After(deadline) {
			for _, c := range cs {
				stuckOps(c, func(what string, n int64) {
					fmt.Fprintf(os.Stderr, "bench: cluster did not drain: %s = %d\n", what, n)
				})
			}
			return stuck
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// setUp runs the workload's set-up `times` times in fresh directories
// under root, tearing down all but the last, and returns the last
// instance with the median set-up time. Several set-ups per run are what
// make setup_s steady enough to gate.
func setUp(wl workload, seed int64, root string, tr *tracer, times int) (instance, Summary, error) {
	var secs []float64
	for i := 0; ; i++ {
		dir, err := os.MkdirTemp(root, wl.name+"-")
		if err != nil {
			return nil, Summary{}, err
		}
		t0 := time.Now()
		inst, err := wl.setup(&env{seed: seed, dir: dir, tr: tr})
		if err != nil {
			os.RemoveAll(dir)
			return nil, Summary{}, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i == times-1 {
			// Write the preloads back now, outside set-up time, so that
			// the kernel does not do it under the timed window, where
			// it slows every journal fsync.
			syscall.Sync()
			return &owned{instance: inst, dir: dir}, summarize("s", secs, len(secs)), nil
		}
		inst.close()
		os.RemoveAll(dir)
	}
}

// owned removes the instance's scratch directory when it closes.
type owned struct {
	instance
	dir string
}

func (o *owned) close() {
	o.instance.close()
	os.RemoveAll(o.dir)
}
