package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dosas/internal/audit"
	"dosas/internal/eventlog"
	"dosas/internal/ioqueue"
	"dosas/internal/kernels"
	"dosas/internal/metrics"
	"dosas/internal/pfs"
	"dosas/internal/telemetry"
	"dosas/internal/tenant"
	"dosas/internal/trace"
	"dosas/internal/wire"
)

// Mode selects the server-side scheduling behaviour of a storage node.
type Mode int

// Runtime modes.
const (
	// ModeDynamic is DOSAS: every arrival and every estimator period the
	// solver decides which requests run here and which bounce.
	ModeDynamic Mode = iota
	// ModeAlwaysAccept is the AS baseline: kernels always run on the
	// storage node.
	ModeAlwaysAccept
	// ModeAlwaysBounce rejects every active request (a TS-only server).
	ModeAlwaysBounce
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeDynamic:
		return "dosas"
	case ModeAlwaysAccept:
		return "as"
	case ModeAlwaysBounce:
		return "ts"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// RuntimeConfig configures the Active I/O Runtime on one storage node.
type RuntimeConfig struct {
	// Store is the node's local stripe store (shared with its pfs data
	// server); required.
	Store pfs.Store
	// Estimator parameterises the node's Contention Estimator.
	Estimator EstimatorConfig
	// Mode selects dynamic scheduling or a static baseline. ModeDynamic
	// decides with MaxGain.
	Mode Mode
	// ChunkSize is the granularity at which kernels consume stripe data
	// and at which interruption is detected. Defaults to 1 MiB.
	ChunkSize int
	// Pace throttles kernel execution to the calibrated per-core rate
	// (kernels.RateFor × ActiveCores sharing), so a fast development host
	// reproduces the Discfarm cluster's timing in live experiments.
	Pace bool
	// Metrics receives runtime counters; shared with the pfs data server
	// so the estimator sees normal-I/O pressure. Optional.
	Metrics *metrics.Registry
	// Trace receives request lifecycle events; a default 1024-event ring
	// is created when nil.
	Trace *trace.Recorder
	// Audit receives one decision record per solver invocation (the
	// input to counterfactual replay); a default 4096-record ring is
	// created when nil. Usually shared with the pfs data server, which
	// serves it over the wire.
	Audit *audit.Log
	// Node is this storage node's identity, stamped on trace events
	// (e.g. "data-0"). Optional.
	Node string
	// Telemetry, when set, is the node's time-series sampler. The runtime
	// registers its load probes on it, starts it, and owns it from then
	// on: Close stops it. Usually shared with the pfs data server, which
	// serves its history over the wire. Optional — nil disables sampling.
	Telemetry *telemetry.Sampler
	// Events, when set, receives the runtime's structured lifecycle
	// events (start, shutdown). Usually shared with the pfs data server,
	// which serves the ring over the wire. Optional.
	Events *eventlog.Log
	// Tenants, when set, is the node's per-tenant usage table. The
	// runtime attributes kernel CPU time, bounces, interrupts, and queue
	// wait to the requesting tenant, and registers the tenant.wait.share
	// probe on the sampler. Usually shared with the pfs data server,
	// which serves it as the tenants introspection. Optional — nil disables
	// attribution.
	Tenants *tenant.Table
}

const (
	// interruptMargin is the minimum relative improvement (1.15 = 15 %)
	// the policy must predict before a running kernel is interrupted and
	// migrated; it prevents thrash near the break-even point.
	interruptMargin = 1.15
	// memHighWater is the fraction of the estimator's memory budget above
	// which dynamic scheduling bounces new active requests (memory is one
	// of the paper's three CE inputs).
	memHighWater = 0.9
	// queueSat is the queue depth at or above which the node's health
	// report marks the "queue" check degraded.
	queueSat = 8
)

// Runtime is the Active I/O Runtime (R): it admits active requests through
// the node's admission gate onto its kernel cores, executes kernels over
// local stripe data, and — under the Contention Estimator's policy —
// bounces or interrupts work back to compute nodes.
type Runtime struct {
	cfg RuntimeConfig
	est *Estimator
	reg *metrics.Registry

	// bytesProcessed is active.bytes_processed, resolved once: feed adds
	// to it per chunk, and a lookup by name takes the registry's lock.
	bytesProcessed *metrics.Counter

	mu    sync.Mutex
	tasks []*task // every accepted task not yet answered, in arrival order
	// gate is where tasks wait for a kernel core: the data server's (see
	// UseGate), or, without one, the runtime's own, made for the first
	// task.
	gate   *pfs.QoSGate
	closed bool // Close has begun: submit refuses new tasks

	nextID    atomic.Uint64
	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup // the policy loop and every submitted task
}

// task is one accepted active request moving through the runtime: an
// active read, or an active transform when transform is set.
type task struct {
	id      uint64
	op      string
	params  []byte
	handle  uint64 // the local stream the kernel reads
	offset  uint64
	length  uint64
	reqID   uint64 // the client's request id
	traceID uint64
	tenant  string
	resume  []byte // an active read's checkpoint to resume from

	transform            bool
	dstHandle, dstOffset uint64 // where a transform writes its output

	// running is guarded by Runtime.mu; a task not running is waiting at
	// the gate, or has been granted a core and not started.
	running   bool
	ticket    *pfs.Ticket
	interrupt atomic.Bool
	processed atomic.Uint64 // bytes consumed so far
	arrived   time.Time     // when the task reached the gate
	predicted time.Duration // estimator's forecast kernel time
	auditSeq  uint64        // decision record awaiting this task's outcome (0 = none)
}

// NewRuntime builds and starts a runtime. Call Close to stop it.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("core: runtime needs a store")
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 1 << 20
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Trace == nil {
		cfg.Trace = trace.NewRecorder(1024)
	}
	if cfg.Node != "" && cfg.Trace.Node() == "" {
		cfg.Trace.SetNode(cfg.Node)
	}
	if cfg.Audit == nil {
		cfg.Audit = audit.NewLog(4096)
	}
	if cfg.Node != "" && cfg.Audit.Node() == "" {
		cfg.Audit.SetNode(cfg.Node)
	}
	if cfg.Estimator.BW == 0 {
		// A zero-value RuntimeConfig must keep working: zero means "the
		// Discfarm default" here, while NewEstimator rejects it outright.
		cfg.Estimator.BW = 118e6
	}
	est, err := NewEstimator(cfg.Estimator, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		cfg:  cfg,
		est:  est,
		reg:  cfg.Metrics,
		stop: make(chan struct{}),

		bytesProcessed: cfg.Metrics.Counter("active.bytes_processed"),
	}
	if cfg.Mode == ModeDynamic {
		rt.wg.Add(1)
		go rt.policyLoop()
	}
	rt.registerProbes()
	cfg.Telemetry.Start()
	cfg.Events.Info("runtime", "active runtime started",
		"mode", cfg.Mode.String(),
		"cores", fmt.Sprint(ActiveCores),
		"solver", MaxGain{}.Name())
	return rt, nil
}

// registerProbes wires the runtime's load signals into its telemetry
// sampler: the continuous histories behind the series introspection and
// the readiness margins behind health. No-op when no sampler is attached.
func (rt *Runtime) registerProbes() {
	s := rt.cfg.Telemetry
	if s == nil {
		return
	}
	s.Register("queue.depth", func() float64 { return float64(rt.queueStats().ActiveLen) })
	s.Register("inflight", func() float64 {
		return float64(rt.reg.Gauge("data.inflight").Value())
	})
	bytesMoved := func() float64 {
		return float64(rt.reg.Counter("data.bytes_read").Value() +
			rt.reg.Counter("data.bytes_written").Value() +
			rt.bytesProcessed.Value())
	}
	s.Register("throughput.bps", telemetry.RateProbe(bytesMoved, s.Interval()))
	bounced := func() float64 {
		return float64(rt.reg.Counter("active.rejected").Value() +
			rt.reg.Counter("active.rejected_memory").Value() +
			rt.reg.Counter("active.bounced_queued").Value())
	}
	arrivals := func() float64 { return float64(rt.reg.Counter("active.arrivals").Value()) }
	s.Register("bounce.rate", telemetry.RatioProbe(bounced, arrivals))
	s.Register("interrupt.rate", telemetry.RatioProbe(func() float64 {
		return float64(rt.reg.Counter("active.interrupted").Value())
	}, arrivals))
	// Per-tick deltas feed the SLO engine's burn-rate windows: unlike the
	// cumulative ratios above, a window sum over deltas goes back to zero
	// once a storm passes, so alerts can resolve.
	s.Register("bounce.delta", telemetry.DeltaProbe(bounced))
	s.Register("arrivals.delta", telemetry.DeltaProbe(arrivals))
	s.Register("interrupt.delta", telemetry.DeltaProbe(func() float64 {
		return float64(rt.reg.Counter("active.interrupted").Value())
	}))
	s.Register("est.error.pct", func() float64 {
		return rt.reg.Histogram("est.kernel_error_pct").Snapshot().Mean()
	})
	s.Register("mem.pressure", func() float64 { return rt.est.MemPressure() })
	if tab := rt.cfg.Tenants; tab != nil {
		// The dominant tenant's share of this tick's queue-wait delta:
		// 0 unless at least two tenants contended. One fixed series —
		// per-tenant granularity lives in the tenant table itself
		// (the tenants introspection, /metrics), not in the ring, so a cardinality
		// bomb cannot grow the sampler.
		s.Register("tenant.wait.share", func() float64 {
			share, _ := tab.WaitShare()
			return share
		})
	}
}

// UseGate makes g the gate this runtime's tasks wait at, with ActiveCores
// kernel cores: the pfs data server hands over its own when the runtime is
// attached (SetActiveHandler), so the node keeps one queue. It must come
// before the first task; once the runtime admits through a gate, later
// calls change nothing.
func (rt *Runtime) UseGate(g *pfs.QoSGate) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.gate == nil && g != nil {
		g.ServeActive(ActiveCores)
		rt.gate = g
	}
}

// queueStats snapshots the gate's queue: zero before the first task of a
// runtime that was handed no gate.
func (rt *Runtime) queueStats() ioqueue.Stats {
	rt.mu.Lock()
	g := rt.gate
	rt.mu.Unlock()
	return g.Stats()
}

// Close withdraws the queued tasks, refuses new ones and waits for the
// running ones; a withdrawn read bounces and a withdrawn transform fails.
// Safe to call more than once.
func (rt *Runtime) Close() {
	rt.closeOnce.Do(func() {
		rt.cfg.Events.Info("runtime", "active runtime stopping",
			"mode", rt.cfg.Mode.String())
		close(rt.stop)
		rt.mu.Lock()
		rt.closed = true
		rt.tasks = slices.DeleteFunc(rt.tasks, func(t *task) bool {
			if !rt.gate.Cancel(t.ticket) {
				return false
			}
			rt.cfg.Audit.Resolve(t.auditSeq, audit.Outcome{Disposition: audit.DispShutdown})
			return true
		})
		rt.mu.Unlock()
		rt.cfg.Telemetry.Close()
	})
	rt.wg.Wait()
}

// withdrawn answers a task that left the table without running: a read
// bounces back to its client; a transform, which only Close withdraws,
// fails.
func withdrawn(t *task) (wire.Message, error) {
	if t.transform {
		return nil, fmt.Errorf("%w: runtime shutting down", pfs.ErrUnsupported)
	}
	return &wire.ActiveReadResp{RequestID: t.reqID, Disposition: wire.ActiveRejected, TraceID: t.traceID}, nil
}

// dropLocked takes t out of the task table. The caller holds rt.mu.
func (rt *Runtime) dropLocked(t *task) {
	rt.tasks = slices.DeleteFunc(rt.tasks, func(o *task) bool { return o == t })
}

// submit enters an accepted task in the table and at the gate, waits for a
// kernel core and runs the task on it. A closed runtime answers it as
// Close does.
func (rt *Runtime) submit(t *task) (wire.Message, error) {
	if !rt.enqueue(t) {
		rt.cfg.Audit.Resolve(t.auditSeq, audit.Outcome{Disposition: audit.DispShutdown})
		return withdrawn(t)
	}
	defer rt.wg.Done()
	return rt.await(t)
}

// enqueue files t in the table and its ticket at the gate, both under
// rt.mu, so a task in the table always has a ticket to withdraw. Once
// Close has begun it does neither and reports false.
func (rt *Runtime) enqueue(t *task) bool {
	t.id = rt.nextID.Add(1)
	t.arrived = time.Now()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return false
	}
	if rt.gate == nil {
		rt.gate = pfs.NewQoSGate(pfs.QoSConfig{})
		rt.gate.SetTenants(rt.cfg.Tenants)
		rt.gate.ServeActive(ActiveCores)
	}
	t.ticket = rt.gate.Enqueue(ioqueue.Active, t.tenant, t.length)
	rt.tasks = append(rt.tasks, t)
	rt.wg.Add(1)
	return true
}

// await waits for t's kernel core and runs t on it. A task withdrawn while
// it queued — bounced, cancelled or shut down, and already out of the
// table — is answered without running.
func (rt *Runtime) await(t *task) (wire.Message, error) {
	if !t.ticket.Wait() {
		return withdrawn(t)
	}
	defer t.ticket.Release()
	return rt.run(t)
}

// Estimator exposes the node's Contention Estimator.
func (rt *Runtime) Estimator() *Estimator { return rt.est }

// ModeName names the scheduling mode ("dosas", "as", "ts"). The pfs data
// server discovers it through an anonymous interface assertion, so the
// name — not the core.Mode type — is what crosses the package boundary.
func (rt *Runtime) ModeName() string { return rt.cfg.Mode.String() }

// healthWindow is how far back the queue readiness check looks in the
// sampler history: a saturation spike between two health probes still
// degrades the next report instead of vanishing between ticks.
const healthWindow = 2 * time.Second

// HealthChecks reports the runtime's per-resource readiness. The pfs data
// server discovers it through an anonymous interface assertion (the
// ModeName pattern), so []telemetry.Check — not core types — crosses the
// package boundary.
func (rt *Runtime) HealthChecks() []telemetry.Check {
	checks := []telemetry.Check{
		{Name: "estimator", OK: true, Detail: fmt.Sprintf("mode %s", rt.cfg.Mode)},
	}
	depth := float64(rt.queueStats().ActiveLen)
	// Prefer the recent-window maximum so a burst the queue has already
	// drained is still visible to an operator probing after the fact.
	if m, ok := rt.cfg.Telemetry.WindowMax("queue.depth", healthWindow); ok && m > depth {
		depth = m
	}
	qc := telemetry.Check{
		Name: "queue", OK: depth < queueSat,
		Detail: fmt.Sprintf("depth %.0f (saturation %d)", depth, queueSat),
	}
	checks = append(checks, qc)
	p := rt.est.MemPressure()
	checks = append(checks, telemetry.Check{
		Name: "memory", OK: p < memHighWater,
		Detail: fmt.Sprintf("pressure %.0f%% (high water %.0f%%)", p*100, memHighWater*100),
	})
	return checks
}

// HandleActive implements pfs.ActiveHandler: the arrival path of an active
// I/O request.
func (rt *Runtime) HandleActive(req *wire.ActiveReadReq) (*wire.ActiveReadResp, error) {
	rt.reg.Counter("active.arrivals").Inc()
	rt.cfg.Tenants.Account(req.Tenant, func(s *tenant.Stats) { s.ActiveOps++ })
	rt.cfg.Trace.RecordEvent(trace.Event{
		Kind: trace.KindArrive, TraceID: req.TraceID,
		ReqID: req.RequestID, Op: req.Op, Bytes: req.Length, Tenant: req.Tenant,
	})
	if !kernels.Registered(req.Op) {
		return nil, fmt.Errorf("%w: %v: %q", pfs.ErrInvalid, kernels.ErrUnknown, req.Op)
	}
	reject := func(counter, note string, decided time.Duration) *wire.ActiveReadResp {
		rt.reg.Counter(counter).Inc()
		rt.cfg.Tenants.Account(req.Tenant, func(s *tenant.Stats) { s.Bounces++ })
		rt.cfg.Trace.RecordEvent(trace.Event{
			Kind: trace.KindReject, TraceID: req.TraceID,
			ReqID: req.RequestID, Op: req.Op, Bytes: req.Length, Tenant: req.Tenant,
			Phase: trace.PhaseDecision, Dur: decided, Note: note,
		})
		return &wire.ActiveReadResp{
			RequestID: req.RequestID, Disposition: wire.ActiveRejected, TraceID: req.TraceID,
		}
	}
	decisionStart := time.Now()
	var admitNote string
	var auditSeq uint64
	switch rt.cfg.Mode {
	case ModeAlwaysBounce:
		return reject("active.rejected", "static ts policy", time.Since(decisionStart)), nil
	case ModeAlwaysAccept:
		admitNote = "static as policy"
	case ModeDynamic:
		if p := rt.est.MemPressure(); p >= memHighWater {
			return reject("active.rejected_memory",
				fmt.Sprintf("memory pressure %.0f%%", p*100), time.Since(decisionStart)), nil
		}
		ok, note, seq := rt.admit(req)
		admitNote = note
		auditSeq = seq
		if !ok {
			rt.cfg.Audit.Resolve(seq, audit.Outcome{Disposition: audit.DispBounced})
			return reject("active.rejected", note, time.Since(decisionStart)), nil
		}
	}
	predicted := rt.predictKernel(req.Op, req.Length)
	rt.cfg.Trace.RecordEvent(trace.Event{
		Kind: trace.KindAdmit, TraceID: req.TraceID,
		ReqID: req.RequestID, Op: req.Op, Bytes: req.Length, Tenant: req.Tenant,
		Phase: trace.PhaseDecision, Dur: time.Since(decisionStart),
		Predicted: predicted, Note: admitNote,
	})
	resp, err := rt.submit(&task{
		op: req.Op, params: req.Params, handle: req.Handle, offset: req.Offset, length: req.Length,
		reqID: req.RequestID, traceID: req.TraceID, tenant: req.Tenant, resume: req.ResumeState,
		predicted: predicted, auditSeq: auditSeq,
	})
	if err != nil {
		return nil, err
	}
	return resp.(*wire.ActiveReadResp), nil
}

// HandleTransform implements pfs.ActiveHandler: active write-back. The
// transform queues behind other active work (it occupies a kernel core)
// but is never bounced — its entire purpose is that neither its input nor
// its output crosses the network.
func (rt *Runtime) HandleTransform(req *wire.TransformReq) (*wire.TransformResp, error) {
	rt.reg.Counter("transform.arrivals").Inc()
	rt.cfg.Tenants.Account(req.Tenant, func(s *tenant.Stats) { s.TransformOps++ })
	if !kernels.Registered(req.Op) {
		return nil, fmt.Errorf("%w: %v: %q", pfs.ErrInvalid, kernels.ErrUnknown, req.Op)
	}
	resp, err := rt.submit(&task{
		op: req.Op, params: req.Params, handle: req.SrcHandle, offset: req.Offset, length: req.Length,
		reqID: req.RequestID, traceID: req.TraceID, tenant: req.Tenant,
		transform: true, dstHandle: req.DstHandle, dstOffset: req.DstOffset,
	})
	if err != nil {
		return nil, err
	}
	return resp.(*wire.TransformResp), nil
}

// executeTransform streams the local source range through the kernel and
// writes the output back to the local destination stream.
func (rt *Runtime) executeTransform(t *task) (wire.Message, error) {
	rt.est.MemReserve(t.length) // output is buffered until Result
	defer rt.est.MemRelease(t.length)

	k, err := kernels.Start(t.op, t.params, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", pfs.ErrInvalid, err)
	}
	if _, interrupted, err := rt.feed(t, k); err != nil {
		return nil, err
	} else if interrupted {
		return nil, fmt.Errorf("%w: transform cancelled", pfs.ErrInvalid)
	}
	out, err := k.Result()
	if err != nil {
		return nil, err
	}
	if _, err := rt.cfg.Store.WriteAt(t.dstHandle, out, t.dstOffset); err != nil {
		return nil, err
	}
	rt.reg.Counter("transform.completed").Inc()
	rt.reg.Counter("transform.bytes_written").Add(int64(len(out)))
	rt.cfg.Trace.RecordEvent(trace.Event{
		Kind: trace.KindTransform, TraceID: t.traceID,
		ReqID: t.reqID, Op: t.op, Bytes: t.length,
		Phase: trace.PhaseKernel, Dur: time.Since(t.arrived),
		Note: fmt.Sprintf("wrote %d bytes locally", len(out)),
	})
	return &wire.TransformResp{RequestID: t.reqID, Written: uint64(len(out))}, nil
}

// admit runs MaxGain over the node's current active set plus the newcomer
// and reports whether the newcomer should run here, along with the
// estimator's reasoning for the trace and the sequence number of the
// decision's audit record (0 when no solver ran).
func (rt *Runtime) admit(req *wire.ActiveReadReq) (bool, string, uint64) {
	v := rt.schedulerView(req)
	env := rt.est.Env(req.Op)
	if !env.Valid() {
		return true, "no calibration", 0 // behave like plain active storage
	}
	assignment := MaxGain{}.Solve(v.reqs, env)
	seq := rt.recordDecision(audit.TriggerAdmit, env, v, assignment, req)
	// The estimator's reasoning: serve actively here (x) vs ship raw and
	// compute on the client (y), over k requests.
	last := len(v.reqs) - 1
	r := v.reqs[last]
	note := fmt.Sprintf("x=%.3fs y=%.3fs gain=%.3fs k=%d",
		env.XCost(r), env.YCost(r), env.Gain(r), len(v.reqs))
	return assignment[last], note, seq
}

// flipDeltaMax bounds the batch size for which per-request decision
// margins are computed: each margin costs one extra objective evaluation,
// so a pathological queue does not turn recording into O(k²) work.
const flipDeltaMax = 64

// recordDecision appends one solver invocation to the audit log: the env
// snapshot, every request's feature vector with predicted costs and its
// margin to the decision boundary, and the three objective values the
// policy weighed. newReq is the arriving request on admit decisions (nil
// on reevaluation sweeps). Returns the record's seq.
func (rt *Runtime) recordDecision(trigger string, env Env, v view, assignment []bool, newReq *wire.ActiveReadReq) uint64 {
	chosen := env.TotalTime(v.reqs, assignment)
	feats := make([]audit.Feature, len(v.reqs))
	for i, r := range v.reqs {
		f := audit.Feature{
			SchedID:     r.ID,
			Op:          r.Op,
			Bytes:       r.Bytes,
			ResultBytes: r.ResultBytes,
			StorageRate: r.StorageRate,
			ComputeRate: r.ComputeRate,
			PredActive:  env.XCost(r),
			PredNormal:  env.YCost(r),
			PredClient:  env.ClientCost(r),
			Gain:        env.Gain(r),
			Accept:      assignment[i],
		}
		if len(v.reqs) <= flipDeltaMax {
			assignment[i] = !assignment[i]
			f.FlipDelta = env.TotalTime(v.reqs, assignment) - chosen
			assignment[i] = !assignment[i]
		}
		if t := v.tasks[i]; t != nil {
			f.ReqID, f.TraceID, f.Tenant = t.reqID, t.traceID, t.tenant
		} else {
			f.Newcomer = true
			f.ReqID, f.TraceID, f.Tenant = newReq.RequestID, newReq.TraceID, newReq.Tenant
		}
		feats[i] = f
	}
	return rt.cfg.Audit.Append(audit.Record{
		Solver:        MaxGain{}.Name(),
		Trigger:       trigger,
		Env:           audit.Env{BW: env.BW, StorageRate: env.StorageRate, ComputeRate: env.ComputeRate},
		Queued:        v.queued,
		Running:       v.running,
		Reqs:          feats,
		PredChosen:    chosen,
		PredAllActive: env.TimeAllActive(v.reqs),
		PredAllNormal: env.TimeAllNormal(v.reqs),
	})
}

// predictKernel is the estimator's forecast of storage-side kernel time
// for one request: bytes over the currently discounted storage rate
// (S_{C,op}). Zero when the node has no calibration for op.
func (rt *Runtime) predictKernel(op string, bytes uint64) time.Duration {
	env := rt.est.Env(op)
	if env.StorageRate <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / env.StorageRate * float64(time.Second))
}

// view is the runtime's active set as the solver sees it, in arrival
// order: reqs[i] prices tasks[i], which is nil for an arriving request.
// queued and running count the table's tasks in each state.
type view struct {
	reqs            []Request
	tasks           []*task
	queued, running int
}

// schedulerView snapshots the task table as scheduler Requests: running
// tasks by remaining bytes, queued tasks in full, plus (when newcomer !=
// nil) the arriving request last. A task already told to stop, or with
// nothing left to process, is left out.
func (rt *Runtime) schedulerView(newcomer *wire.ActiveReadReq) view {
	var v view
	rt.mu.Lock()
	for _, t := range rt.tasks {
		bytes := t.length
		if t.running {
			v.running++
			bytes -= t.processed.Load()
			if bytes == 0 {
				continue
			}
		} else {
			v.queued++
		}
		if t.interrupt.Load() {
			continue
		}
		v.reqs = append(v.reqs, rt.requestFor(t.id, t.op, t.params, bytes))
		v.tasks = append(v.tasks, t)
	}
	rt.mu.Unlock()
	if newcomer != nil {
		id := rt.nextID.Add(1) + 1<<62 // ephemeral id, distinct from tasks
		v.reqs = append(v.reqs, rt.requestFor(id, newcomer.Op, newcomer.Params, newcomer.Length))
		v.tasks = append(v.tasks, nil)
	}
	return v
}

// requestFor builds one scheduler Request with per-op rates. h(d) comes
// from the kernel configured with the request's own params: a full-image
// gaussian2d returns its input, a downsample by f a f-th of it.
func (rt *Runtime) requestFor(id uint64, op string, params []byte, bytes uint64) Request {
	env := rt.est.Env(op)
	k, err := kernels.Start(op, params, nil)
	var result uint64
	if err == nil {
		result = k.ResultSize(bytes)
	}
	return Request{
		ID:          id,
		Bytes:       bytes,
		ResultBytes: result,
		StorageRate: env.StorageRate,
		ComputeRate: env.ComputeRate,
		Op:          op,
	}
}

// policyLoop is the CE's periodic re-evaluation: it recomputes the optimal
// assignment over queued and running work and bounces or interrupts
// whatever no longer belongs on the storage node.
func (rt *Runtime) policyLoop() {
	defer rt.wg.Done()
	period := rt.est.Config().Period
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
			rt.reevaluate()
		}
	}
}

// reevaluate applies the current policy to in-flight work. Queued requests
// assigned "bounce" are rejected immediately; running requests are
// interrupted only when the predicted improvement clears interruptMargin.
// Transforms neither bounce nor migrate: their whole point is that
// neither input nor output crosses the network.
func (rt *Runtime) reevaluate() {
	v := rt.schedulerView(nil)
	if len(v.reqs) == 0 {
		return
	}
	// Each request carries its own rates; the base env supplies bw.
	env := rt.est.Env(v.reqs[0].Op)
	if !env.Valid() {
		return
	}
	assignment := MaxGain{}.Solve(v.reqs, env)
	rt.recordDecision(audit.TriggerReevaluate, env, v, assignment, nil)
	allActive := env.TimeAllActive(v.reqs)
	chosen := env.TotalTime(v.reqs, assignment)
	for i, t := range v.tasks {
		if assignment[i] || t.transform {
			continue
		}
		rt.mu.Lock()
		switch {
		case !t.running:
			if rt.gate.Cancel(t.ticket) {
				rt.dropLocked(t)
				rt.mu.Unlock()
				rt.reg.Counter("active.bounced_queued").Inc()
				rt.cfg.Tenants.Account(t.tenant, func(s *tenant.Stats) { s.Bounces++ })
				rt.cfg.Trace.RecordEvent(trace.Event{
					Kind: trace.KindReject, TraceID: t.traceID,
					ReqID: t.reqID, Op: t.op, Bytes: v.reqs[i].Bytes, Tenant: t.tenant,
					Phase: trace.PhaseDecision,
					Note:  fmt.Sprintf("bounced from queue at re-evaluation, gain %.2fx", allActive/chosen),
				})
				rt.cfg.Audit.Resolve(t.auditSeq, audit.Outcome{Disposition: audit.DispBouncedQueued})
				continue
			}
		// Interrupt running work only when the policy's win is decisive
		// (paper: "record and interrupt current active I/O being
		// serviced").
		case allActive > chosen*interruptMargin && t.interrupt.CompareAndSwap(false, true):
			rt.reg.Counter("active.interrupted").Inc()
			rt.cfg.Trace.RecordEvent(trace.Event{
				Kind: trace.KindInterrupt, TraceID: t.traceID,
				ReqID: t.reqID, Op: t.op, Bytes: v.reqs[i].Bytes,
				Phase: trace.PhaseDecision,
				Note:  fmt.Sprintf("policy gain %.2fx", allActive/chosen),
			})
		}
		rt.mu.Unlock()
	}
}

// run executes a task the gate has granted a kernel core.
func (rt *Runtime) run(t *task) (wire.Message, error) {
	rt.mu.Lock()
	t.running = true
	rt.mu.Unlock()
	rt.cfg.Tenants.Account(t.tenant, func(s *tenant.Stats) { s.Inflight++ })
	kernelStart := time.Now()
	execute := rt.execute
	if t.transform {
		execute = rt.executeTransform
	}
	resp, err := execute(t)
	kernelElapsed := time.Since(kernelStart)
	rt.cfg.Tenants.Account(t.tenant, func(s *tenant.Stats) {
		s.Inflight--
		s.KernelNanos += uint64(kernelElapsed)
	})
	rt.mu.Lock()
	rt.dropLocked(t)
	rt.mu.Unlock()
	if err != nil {
		rt.cfg.Audit.Resolve(t.auditSeq, audit.Outcome{Disposition: audit.DispError})
	}
	return resp, err
}

// ErrInputTruncated reports that a kernel's input was cut while the kernel
// read it in place: the extent file behind its chunk shrank (a concurrent
// Truncate) and the read faulted. It travels as StatusInvalid.
var ErrInputTruncated = fmt.Errorf("%w: active input truncated under the kernel", pfs.ErrInvalid)

// kernelSlots bounds how many kernels are inside Process at once, across
// every Runtime in the process, at GOMAXPROCS−1 (at least one): the model's
// reserved I/O core (NodeCores − ActiveCores), enforced on the CPUs the
// process has. A dosas-server holds it per node; dosasd and in-process
// clusters share it across their nodes. A kernel holds a slot only while it
// computes a chunk — never across pacing sleeps, checkpoints, output
// writes or queue waits — so normal I/O always finds a P free.
var kernelSlots = make(chan struct{}, max(1, runtime.GOMAXPROCS(0)-1))

// process runs one chunk through k on a kernel slot. A fault while k reads
// the chunk — its mapped extent was cut under it — becomes
// ErrInputTruncated; any other panic is re-raised.
func process(k kernels.Kernel, chunk []byte) (err error) {
	kernelSlots <- struct{}{}
	defer func() {
		<-kernelSlots
		if r := recover(); r != nil {
			fault, ok := r.(interface{ Addr() uintptr })
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("%w (fault at %#x)", ErrInputTruncated, fault.Addr())
		}
	}()
	return k.Process(chunk)
}

// feed streams the task's local input range through k, one chunk at a time:
// view, Process, publish progress, pace. A chunk is at most ChunkSize and
// ends at an extent boundary; on an extent store it is the page cache in
// place (pfs.ReadView), elsewhere a pooled copy. It looks at the interrupt
// flag before every chunk and stops there when it is raised; what an
// interrupt means — checkpoint and migrate, or fail — is the caller's. done
// is the number of bytes k has consumed.
func (rt *Runtime) feed(t *task, k kernels.Kernel) (done uint64, interrupted bool, err error) {
	buf := wire.GetBuf(rt.cfg.ChunkSize) // pooled; kernels must not retain chunk slices
	defer wire.PutBuf(buf)
	// A mapped chunk faults instead of reading short if its file is cut
	// under the kernel; process turns that fault into an error.
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for done < t.length {
		chunkStart := time.Now()
		if t.interrupt.Load() {
			return done, true, nil
		}
		n := min(uint64(len(buf)), t.length-done)
		v, err := pfs.ReadView(rt.cfg.Store, t.handle, buf[:n], t.offset+done)
		if err != nil {
			return done, false, err
		}
		read := len(v.Bytes())
		if read == 0 {
			return done, false, fmt.Errorf("%w: active input beyond local data (handle %d offset %d)",
				pfs.ErrInvalid, t.handle, t.offset+done)
		}
		err = process(k, v.Bytes())
		v.Release()
		if err != nil {
			return done, false, err
		}
		done += uint64(read)
		t.processed.Store(done)
		if !t.transform {
			rt.bytesProcessed.Add(int64(read))
		}
		if rt.cfg.Pace {
			rt.paceChunk(t.op, read, chunkStart)
		}
	}
	return done, false, nil
}

// execute streams local stripe data through the request's kernel,
// checkpointing out if the interrupt flag is raised between chunks.
func (rt *Runtime) execute(t *task) (wire.Message, error) {
	var queueWait time.Duration
	if !t.arrived.IsZero() {
		queueWait = time.Since(t.arrived)
	}
	execStart := time.Now()
	rt.cfg.Trace.RecordEvent(trace.Event{
		Kind: trace.KindStart, TraceID: t.traceID,
		ReqID: t.reqID, Op: t.op, Bytes: t.length, Tenant: t.tenant,
		Phase: trace.PhaseQueueWait, Dur: queueWait, Predicted: t.predicted,
	})
	rt.reg.Histogram("active.queue_wait_us").Observe(float64(queueWait.Microseconds()))
	rt.est.MemReserve(uint64(rt.cfg.ChunkSize))
	defer rt.est.MemRelease(uint64(rt.cfg.ChunkSize))

	k, err := kernels.Start(t.op, t.params, t.resume)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", pfs.ErrInvalid, err)
	}
	done, interrupted, err := rt.feed(t, k)
	if err != nil {
		return nil, err
	}
	if interrupted {
		state, cerr := k.Checkpoint()
		if cerr != nil {
			return nil, cerr
		}
		rt.reg.Counter("active.migrated").Inc()
		rt.cfg.Tenants.Account(t.tenant, func(s *tenant.Stats) { s.Interrupts++ })
		rt.cfg.Trace.RecordEvent(trace.Event{
			Kind: trace.KindMigrate, TraceID: t.traceID,
			ReqID: t.reqID, Op: t.op, Bytes: t.length - done, Tenant: t.tenant,
			Phase: trace.PhaseKernel, Dur: time.Since(execStart), Predicted: t.predicted,
			Note: fmt.Sprintf("checkpointed after %d bytes", done),
		})
		// The realized disposition of an accepted-then-interrupted
		// request: it bounced after partial kernel work here.
		rt.cfg.Audit.Resolve(t.auditSeq, audit.Outcome{
			Disposition: audit.DispInterrupted,
			KernelNS:    time.Since(execStart).Nanoseconds(),
			QueueWaitNS: queueWait.Nanoseconds(),
			Processed:   done,
		})
		return &wire.ActiveReadResp{
			RequestID:   t.reqID,
			Disposition: wire.ActiveInterrupted,
			State:       state,
			Processed:   done,
			TraceID:     t.traceID,
		}, nil
	}
	out, err := k.Result()
	if err != nil {
		return nil, err
	}
	rt.reg.Counter("active.completed").Inc()
	elapsed := time.Since(execStart)
	var note string
	if t.predicted > 0 {
		// Predicted-vs-actual kernel cost is a first-class metric: the
		// estimator's whole job is making this forecast accurate.
		errPct := 100 * (elapsed - t.predicted).Abs().Seconds() / t.predicted.Seconds()
		rt.reg.Histogram("est.kernel_error_pct").Observe(errPct)
		note = fmt.Sprintf("estimator error %.0f%%", errPct)
	}
	rt.cfg.Trace.RecordEvent(trace.Event{
		Kind: trace.KindComplete, TraceID: t.traceID,
		ReqID: t.reqID, Op: t.op, Bytes: t.length, Tenant: t.tenant,
		Phase: trace.PhaseKernel, Dur: elapsed, Predicted: t.predicted,
		Note: note,
	})
	// Close the audit loop: the decision record now carries the measured
	// kernel cost next to the prediction it was made on.
	rt.cfg.Audit.Resolve(t.auditSeq, audit.Outcome{
		Disposition: audit.DispDone,
		KernelNS:    elapsed.Nanoseconds(),
		QueueWaitNS: queueWait.Nanoseconds(),
		Processed:   done,
	})
	return &wire.ActiveReadResp{
		RequestID:   t.reqID,
		Disposition: wire.ActiveDone,
		Result:      out,
		Processed:   done,
		TraceID:     t.traceID,
	}, nil
}

// paceChunk sleeps so the chunk just processed took at least bytes/rate
// seconds of wall time, emulating the calibrated per-core kernel rate of
// the paper's hardware on faster hosts. The rate is discounted by current
// normal-I/O pressure with the same law the Contention Estimator assumes,
// so in live experiments normal I/O storms really do slow storage-side
// kernels — the physical contention the paper measures.
func (rt *Runtime) paceChunk(op string, bytes int, start time.Time) {
	rate := rt.est.discount(rt.est.cfg.RateFor(op))
	if rate <= 0 {
		return
	}
	want := time.Duration(float64(bytes) / rate * float64(time.Second))
	if elapsed := time.Since(start); want > elapsed {
		time.Sleep(want - elapsed)
	}
}

// HandleProbe implements pfs.ActiveHandler from the task table: a
// running task holds one of the node's cores, a queued one waits with its
// bytes. The pfs data server adds the normal-I/O half.
func (rt *Runtime) HandleProbe() (*wire.ProbeResp, error) {
	p := &wire.ProbeResp{TotalCores: NodeCores, MemUsed: rt.est.memUsed(), MemTotal: rt.est.cfg.MemBudget}
	rt.mu.Lock()
	for _, t := range rt.tasks {
		if t.running {
			p.BusyCores++
			continue
		}
		p.ActiveQueueLen++
		p.BytesQueued += t.length
	}
	rt.mu.Unlock()
	return p, nil
}

// HandleCancel implements pfs.ActiveHandler: it withdraws a queued request
// or interrupts one that holds a kernel core, matching on the client's
// RequestID and TraceID together: request ids are per client, so the id
// alone can name another client's request. Transforms are not
// cancellable: their caller has nothing to fall back to.
func (rt *Runtime) HandleCancel(req *wire.CancelReq) (*wire.CancelResp, error) {
	rt.mu.Lock()
	i := slices.IndexFunc(rt.tasks, func(t *task) bool {
		return !t.transform && t.reqID == req.RequestID && t.traceID == req.TraceID
	})
	if i < 0 {
		rt.mu.Unlock()
		return &wire.CancelResp{Found: false}, nil
	}
	t := rt.tasks[i]
	if rt.gate.Cancel(t.ticket) {
		rt.dropLocked(t)
		rt.mu.Unlock()
		rt.cfg.Trace.RecordEvent(trace.Event{
			Kind: trace.KindCancel, TraceID: t.traceID,
			ReqID: req.RequestID, Op: t.op, Note: "withdrawn from queue",
		})
		rt.cfg.Audit.Resolve(t.auditSeq, audit.Outcome{Disposition: audit.DispCancelled})
		return &wire.CancelResp{Found: true}, nil
	}
	// Running, or about to: the kernel stops before its next chunk.
	t.interrupt.Store(true)
	rt.mu.Unlock()
	rt.cfg.Trace.RecordEvent(trace.Event{
		Kind: trace.KindCancel, TraceID: t.traceID,
		ReqID: req.RequestID, Op: t.op, Note: "running kernel flagged",
	})
	return &wire.CancelResp{Found: true}, nil
}

var _ pfs.ActiveHandler = (*Runtime)(nil)
