package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
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
	// Mode selects dynamic scheduling or a static baseline.
	Mode Mode
	// Solver picks the scheduling algorithm for ModeDynamic; defaults to
	// MaxGain.
	Solver Solver
	// ActiveCores is the kernel worker-pool size; defaults to
	// TotalCores − IOReservedCores.
	ActiveCores int
	// ChunkSize is the granularity at which kernels consume stripe data
	// and at which interruption is detected. Defaults to 1 MiB.
	ChunkSize int
	// Pace throttles kernel execution to the calibrated per-core rate
	// (kernels.RateFor × ActiveCores sharing), so a fast development host
	// reproduces the Discfarm cluster's timing in live experiments.
	Pace bool
	// InterruptMargin is the minimum relative improvement (e.g. 1.15 =
	// 15 %) the policy must predict before a *running* kernel is
	// interrupted and migrated; prevents thrash near the break-even
	// point. Defaults to 1.15.
	InterruptMargin float64
	// MemHighWater is the fraction of the estimator's memory budget
	// above which dynamic scheduling bounces new active requests
	// (memory is one of the paper's three CE inputs). Defaults to 0.9.
	MemHighWater float64
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
	// QueueSat is the queue depth at or above which the node's health
	// report marks the "queue" check degraded. Defaults to 8.
	QueueSat int
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
	// TenantWeights are the active queue's weighted-fair scheduling
	// weights: a weight-2 tenant's active requests earn credit twice as
	// fast as a weight-1 tenant's. Absent tenants weigh 1; nil means
	// equal weights.
	TenantWeights map[string]float64
	// QueueQuantum overrides the active queue's per-round WDRR credit in
	// bytes (0 = ioqueue.DefaultQuantum).
	QueueQuantum int
}

// Runtime is the Active I/O Runtime (R): it queues active requests,
// executes kernels over local stripe data with a bounded worker pool, and
// — under the Contention Estimator's policy — bounces or interrupts work
// back to compute nodes.
type Runtime struct {
	cfg   RuntimeConfig
	est   *Estimator
	queue *ioqueue.Queue
	reg   *metrics.Registry

	// bytesProcessed is active.bytes_processed, resolved once: feed adds
	// to it per chunk, and a lookup by name takes the registry's lock.
	bytesProcessed *metrics.Counter

	mu      sync.Mutex
	running map[uint64]*task // internal id → running task
	queued  map[uint64]*task

	nextID    atomic.Uint64
	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// task is one accepted active request moving through the runtime:
// either an active read (req set) or an active transform (xform set).
type task struct {
	id        uint64
	req       *wire.ActiveReadReq
	xform     *wire.TransformReq
	resp      chan taskResult // buffered, capacity 1
	interrupt atomic.Bool
	processed atomic.Uint64 // bytes consumed so far
	op        string
	tenant    string
	traceID   uint64
	arrived   time.Time     // when the task entered the queue
	predicted time.Duration // estimator's forecast kernel time
	auditSeq  uint64        // decision record awaiting this task's outcome (0 = none)
}

// length returns the task's input size in bytes.
func (t *task) length() uint64 {
	if t.xform != nil {
		return t.xform.Length
	}
	return t.req.Length
}

// source returns the local stream and offset the task's kernel reads from.
func (t *task) source() (handle, offset uint64) {
	if t.xform != nil {
		return t.xform.SrcHandle, t.xform.Offset
	}
	return t.req.Handle, t.req.Offset
}

// clientReqID returns the task's client-visible request id.
func (t *task) clientReqID() uint64 {
	if t.xform != nil {
		return t.xform.RequestID
	}
	return t.req.RequestID
}

type taskResult struct {
	resp wire.Message
	err  error
}

// NewRuntime builds and starts a runtime. Call Close to stop its workers.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("core: runtime needs a store")
	}
	if cfg.Solver == nil {
		cfg.Solver = MaxGain{}
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 1 << 20
	}
	if cfg.InterruptMargin <= 1 {
		cfg.InterruptMargin = 1.15
	}
	if cfg.MemHighWater <= 0 || cfg.MemHighWater > 1 {
		cfg.MemHighWater = 0.9
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.QueueSat <= 0 {
		cfg.QueueSat = 8
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
	q := ioqueue.New()
	q.SetTenants(cfg.Tenants)
	q.SetWeights(cfg.TenantWeights)
	if cfg.QueueQuantum > 0 {
		q.SetQuantum(cfg.QueueQuantum)
	}
	est, err := NewEstimator(cfg.Estimator, q, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	if cfg.ActiveCores <= 0 {
		c := est.Config()
		cfg.ActiveCores = c.TotalCores - c.IOReservedCores
		if cfg.ActiveCores < 1 {
			cfg.ActiveCores = 1
		}
	}
	rt := &Runtime{
		cfg:     cfg,
		est:     est,
		queue:   q,
		reg:     cfg.Metrics,
		running: make(map[uint64]*task),
		queued:  make(map[uint64]*task),
		stop:    make(chan struct{}),

		bytesProcessed: cfg.Metrics.Counter("active.bytes_processed"),
	}
	for i := 0; i < cfg.ActiveCores; i++ {
		rt.wg.Add(1)
		go rt.worker()
	}
	if cfg.Mode == ModeDynamic {
		rt.wg.Add(1)
		go rt.policyLoop()
	}
	rt.registerProbes()
	cfg.Telemetry.Start()
	cfg.Events.Info("runtime", "active runtime started",
		"mode", cfg.Mode.String(),
		"cores", fmt.Sprint(cfg.ActiveCores),
		"solver", cfg.Solver.Name())
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
	s.Register("queue.depth", func() float64 {
		st := rt.queue.Stats()
		return float64(st.NormalLen + st.ActiveLen)
	})
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

// QoSStats exposes the active queue's occupancy and weighted-fair
// counters. The pfs data server (which sees this runtime only as an
// ActiveHandler) folds them into the node's qos.* telemetry.
func (rt *Runtime) QoSStats() ioqueue.Stats { return rt.queue.Stats() }

// Close stops workers; queued requests are bounced. Safe to call more
// than once.
func (rt *Runtime) Close() {
	rt.closeOnce.Do(func() {
		rt.cfg.Events.Info("runtime", "active runtime stopping",
			"mode", rt.cfg.Mode.String())
		close(rt.stop)
		rt.queue.Close()
		rt.cfg.Telemetry.Close()
	})
	rt.wg.Wait()
	// Anything still queued bounces so clients are not stranded.
	for _, it := range rt.queue.DrainActive() {
		t := it.Payload.(*task)
		rt.cfg.Audit.Resolve(t.auditSeq, audit.Outcome{Disposition: audit.DispShutdown})
		if t.xform != nil {
			rt.respond(t, nil, fmt.Errorf("%w: runtime shutting down", pfs.ErrUnsupported))
			continue
		}
		rt.respond(t, &wire.ActiveReadResp{
			RequestID:   t.req.RequestID,
			Disposition: wire.ActiveRejected,
			TraceID:     t.traceID,
		}, nil)
	}
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
	st := rt.queue.Stats()
	depth := float64(st.NormalLen + st.ActiveLen)
	// Prefer the recent-window maximum so a burst the queue has already
	// drained is still visible to an operator probing after the fact.
	if m, ok := rt.cfg.Telemetry.WindowMax("queue.depth", healthWindow); ok && m > depth {
		depth = m
	}
	qc := telemetry.Check{
		Name: "queue", OK: depth < float64(rt.cfg.QueueSat),
		Detail: fmt.Sprintf("depth %.0f (saturation %d)", depth, rt.cfg.QueueSat),
	}
	checks = append(checks, qc)
	p := rt.est.MemPressure()
	checks = append(checks, telemetry.Check{
		Name: "memory", OK: p < rt.cfg.MemHighWater,
		Detail: fmt.Sprintf("pressure %.0f%% (high water %.0f%%)", p*100, rt.cfg.MemHighWater*100),
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
		if p := rt.est.MemPressure(); p >= rt.cfg.MemHighWater {
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
	t := &task{
		id:        rt.nextID.Add(1),
		req:       req,
		resp:      make(chan taskResult, 1),
		op:        req.Op,
		tenant:    req.Tenant,
		traceID:   req.TraceID,
		arrived:   time.Now(),
		predicted: predicted,
		auditSeq:  auditSeq,
	}
	rt.mu.Lock()
	rt.queued[t.id] = t
	rt.mu.Unlock()
	err := rt.queue.Push(ioqueue.Item{
		ID:      t.id,
		Class:   ioqueue.Active,
		Op:      req.Op,
		Bytes:   req.Length,
		Tenant:  req.Tenant,
		Payload: t,
	})
	if err != nil {
		rt.mu.Lock()
		delete(rt.queued, t.id)
		rt.mu.Unlock()
		rt.cfg.Audit.Resolve(auditSeq, audit.Outcome{Disposition: audit.DispShutdown})
		return &wire.ActiveReadResp{
			RequestID: req.RequestID, Disposition: wire.ActiveRejected, TraceID: req.TraceID,
		}, nil
	}
	res := <-t.resp
	if res.err != nil {
		return nil, res.err
	}
	ar, ok := res.resp.(*wire.ActiveReadResp)
	if !ok {
		return nil, fmt.Errorf("core: internal: %T answered an active read", res.resp)
	}
	return ar, nil
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
	t := &task{
		id:      rt.nextID.Add(1),
		xform:   req,
		resp:    make(chan taskResult, 1),
		op:      req.Op,
		tenant:  req.Tenant,
		traceID: req.TraceID,
		arrived: time.Now(),
	}
	rt.mu.Lock()
	rt.queued[t.id] = t
	rt.mu.Unlock()
	err := rt.queue.Push(ioqueue.Item{
		ID:      t.id,
		Class:   ioqueue.Active,
		Op:      req.Op,
		Bytes:   req.Length,
		Tenant:  req.Tenant,
		Payload: t,
	})
	if err != nil {
		rt.mu.Lock()
		delete(rt.queued, t.id)
		rt.mu.Unlock()
		return nil, fmt.Errorf("%w: runtime shutting down", pfs.ErrUnsupported)
	}
	res := <-t.resp
	if res.err != nil {
		return nil, res.err
	}
	tr, ok := res.resp.(*wire.TransformResp)
	if !ok {
		return nil, fmt.Errorf("core: internal: %T answered a transform", res.resp)
	}
	return tr, nil
}

// executeTransform streams the local source range through the kernel and
// writes the output back to the local destination stream.
func (rt *Runtime) executeTransform(t *task) (wire.Message, error) {
	req := t.xform
	rt.est.KernelStarted()
	defer rt.est.KernelFinished()
	rt.est.MemReserve(req.Length) // output is buffered until Result
	defer rt.est.MemRelease(req.Length)

	k, err := kernels.Start(req.Op, req.Params, nil)
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
	if _, err := rt.cfg.Store.WriteAt(req.DstHandle, out, req.DstOffset); err != nil {
		return nil, err
	}
	rt.reg.Counter("transform.completed").Inc()
	rt.reg.Counter("transform.bytes_written").Add(int64(len(out)))
	rt.cfg.Trace.RecordEvent(trace.Event{
		Kind: trace.KindTransform, TraceID: t.traceID,
		ReqID: req.RequestID, Op: req.Op, Bytes: req.Length,
		Phase: trace.PhaseKernel, Dur: time.Since(t.arrived),
		Note: fmt.Sprintf("wrote %d bytes locally", len(out)),
	})
	return &wire.TransformResp{RequestID: req.RequestID, Written: uint64(len(out))}, nil
}

// admit runs the scheduling algorithm over the node's current active set
// plus the newcomer and reports whether the newcomer should run here,
// along with the estimator's reasoning for the trace and the sequence
// number of the decision's audit record (0 when no solver ran).
func (rt *Runtime) admit(req *wire.ActiveReadReq) (bool, string, uint64) {
	newReq, reqs := rt.schedulerView(req)
	if len(reqs) == 0 {
		return true, "empty active set", 0
	}
	env := rt.est.Env(req.Op)
	if !env.Valid() {
		return true, "no calibration", 0 // behave like plain active storage
	}
	assignment := rt.cfg.Solver.Solve(reqs, env)
	seq := rt.recordDecision(audit.TriggerAdmit, env, reqs, assignment, newReq, req)
	for i, r := range reqs {
		if r.ID == newReq {
			// The estimator's reasoning: serve actively here (x) vs
			// ship raw and compute on the client (y), over k requests.
			note := fmt.Sprintf("x=%.3fs y=%.3fs gain=%.3fs k=%d",
				env.XCost(r), env.YCost(r), env.Gain(r), len(reqs))
			return assignment[i], note, seq
		}
	}
	return true, "newcomer not in scheduler view", seq
}

// flipDeltaMax bounds the batch size for which per-request decision
// margins are computed: each margin costs one extra objective evaluation,
// so a pathological queue does not turn recording into O(k²) work.
const flipDeltaMax = 64

// recordDecision appends one solver invocation to the audit log: the env
// snapshot, every request's feature vector with predicted costs and its
// margin to the decision boundary, and the three objective values the
// policy weighed. newcomer/newReq identify the arriving request on admit
// decisions (0/nil on reevaluation sweeps). Returns the record's seq.
func (rt *Runtime) recordDecision(trigger string, env Env, reqs []Request, assignment []bool, newcomer uint64, newReq *wire.ActiveReadReq) uint64 {
	if rt.cfg.Audit == nil {
		return 0
	}
	// Map scheduler ids back to client-visible identities, and capture
	// the queue depths the decision was made against.
	type ident struct {
		reqID, traceID uint64
		tenant         string
	}
	rt.mu.Lock()
	ids := make(map[uint64]ident, len(rt.queued)+len(rt.running))
	for id, t := range rt.queued {
		ids[id] = ident{reqID: t.clientReqID(), traceID: t.traceID, tenant: t.tenant}
	}
	for id, t := range rt.running {
		ids[id] = ident{reqID: t.clientReqID(), traceID: t.traceID, tenant: t.tenant}
	}
	queued, running := len(rt.queued), len(rt.running)
	rt.mu.Unlock()

	chosen := env.TotalTime(reqs, assignment)
	feats := make([]audit.Feature, len(reqs))
	for i, r := range reqs {
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
		if len(reqs) <= flipDeltaMax {
			assignment[i] = !assignment[i]
			f.FlipDelta = env.TotalTime(reqs, assignment) - chosen
			assignment[i] = !assignment[i]
		}
		if newcomer != 0 && r.ID == newcomer && newReq != nil {
			f.Newcomer = true
			f.ReqID = newReq.RequestID
			f.TraceID = newReq.TraceID
			f.Tenant = newReq.Tenant
		} else if id, ok := ids[r.ID]; ok {
			f.ReqID = id.reqID
			f.TraceID = id.traceID
			f.Tenant = id.tenant
		}
		feats[i] = f
	}
	return rt.cfg.Audit.Append(audit.Record{
		Solver:        rt.cfg.Solver.Name(),
		Trigger:       trigger,
		Env:           audit.Env{BW: env.BW, StorageRate: env.StorageRate, ComputeRate: env.ComputeRate},
		Queued:        queued,
		Running:       running,
		Reqs:          feats,
		PredChosen:    chosen,
		PredAllActive: env.TimeAllActive(reqs),
		PredAllNormal: env.TimeAllNormal(reqs),
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

// schedulerView snapshots the runtime's active set as scheduler Requests:
// running tasks by remaining bytes, queued tasks in full, plus (when
// newcomer != nil) the arriving request. It returns the newcomer's
// scheduler ID and the request list.
func (rt *Runtime) schedulerView(newcomer *wire.ActiveReadReq) (uint64, []Request) {
	var reqs []Request
	rt.mu.Lock()
	for _, t := range rt.running {
		remaining := t.length() - t.processed.Load()
		if remaining == 0 || t.interrupt.Load() {
			continue
		}
		reqs = append(reqs, rt.requestFor(t.id, t.op, remaining))
	}
	for _, t := range rt.queued {
		reqs = append(reqs, rt.requestFor(t.id, t.op, t.length()))
	}
	rt.mu.Unlock()
	var newID uint64
	if newcomer != nil {
		newID = rt.nextID.Add(1) + 1<<62 // ephemeral id, distinct from tasks
		reqs = append(reqs, rt.requestFor(newID, newcomer.Op, newcomer.Length))
	}
	return newID, reqs
}

// requestFor builds one scheduler Request with per-op rates.
func (rt *Runtime) requestFor(id uint64, op string, bytes uint64) Request {
	env := rt.est.Env(op)
	k, err := kernels.New(op)
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
// interrupted only when the predicted improvement clears InterruptMargin.
func (rt *Runtime) reevaluate() {
	_, reqs := rt.schedulerView(nil)
	if len(reqs) == 0 {
		return
	}
	env := rt.est.Env(reqs0Op(rt))
	if !env.Valid() {
		return
	}
	assignment := rt.cfg.Solver.Solve(reqs, env)
	rt.recordDecision(audit.TriggerReevaluate, env, reqs, assignment, 0, nil)
	allActive := env.TimeAllActive(reqs)
	chosen := env.TotalTime(reqs, assignment)
	for i, r := range reqs {
		if assignment[i] {
			continue
		}
		rt.mu.Lock()
		if t, ok := rt.queued[r.ID]; ok {
			if t.xform != nil {
				// Transforms cannot bounce: their whole point is that
				// neither input nor output crosses the network.
				rt.mu.Unlock()
				continue
			}
			if _, found := rt.queue.Remove(t.id); found {
				delete(rt.queued, t.id)
				rt.mu.Unlock()
				rt.reg.Counter("active.bounced_queued").Inc()
				rt.cfg.Tenants.Account(t.tenant, func(s *tenant.Stats) { s.Bounces++ })
				rt.cfg.Trace.RecordEvent(trace.Event{
					Kind: trace.KindReject, TraceID: t.traceID,
					ReqID: t.req.RequestID, Op: t.op, Bytes: r.Bytes, Tenant: t.tenant,
					Phase: trace.PhaseDecision,
					Note:  fmt.Sprintf("bounced from queue at re-evaluation, gain %.2fx", allActive/chosen),
				})
				rt.cfg.Audit.Resolve(t.auditSeq, audit.Outcome{Disposition: audit.DispBouncedQueued})
				rt.respond(t, &wire.ActiveReadResp{
					RequestID:   t.req.RequestID,
					Disposition: wire.ActiveRejected,
					TraceID:     t.traceID,
				}, nil)
				continue
			}
			rt.mu.Unlock()
			continue
		}
		if t, ok := rt.running[r.ID]; ok {
			// Interrupt running work only when the policy's win is
			// decisive (paper: "record and interrupt current active I/O
			// being serviced"). Transforms are never migrated.
			if t.xform == nil && allActive > chosen*rt.cfg.InterruptMargin {
				if t.interrupt.CompareAndSwap(false, true) {
					rt.reg.Counter("active.interrupted").Inc()
					rt.cfg.Trace.RecordEvent(trace.Event{
						Kind: trace.KindInterrupt, TraceID: t.traceID,
						ReqID: t.req.RequestID, Op: t.op, Bytes: r.Bytes,
						Phase: trace.PhaseDecision,
						Note:  fmt.Sprintf("policy gain %.2fx", allActive/chosen),
					})
				}
			}
		}
		rt.mu.Unlock()
	}
}

// reqs0Op returns the op of any current task, for the base Env (each
// request carries its own rates; the base just supplies BW).
func reqs0Op(rt *Runtime) string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, t := range rt.queued {
		return t.op
	}
	for _, t := range rt.running {
		return t.op
	}
	return "sum8"
}

// worker executes queued active requests, one kernel per core.
func (rt *Runtime) worker() {
	defer rt.wg.Done()
	for {
		item, err := rt.queue.Pop()
		if err != nil {
			return
		}
		t := item.Payload.(*task)
		rt.mu.Lock()
		delete(rt.queued, t.id)
		rt.running[t.id] = t
		rt.mu.Unlock()
		rt.cfg.Tenants.Account(t.tenant, func(s *tenant.Stats) { s.Inflight++ })
		kernelStart := time.Now()
		var resp wire.Message
		var rerr error
		if t.xform != nil {
			resp, rerr = rt.executeTransform(t)
		} else {
			resp, rerr = rt.execute(t)
		}
		kernelElapsed := time.Since(kernelStart)
		rt.cfg.Tenants.Account(t.tenant, func(s *tenant.Stats) {
			s.Inflight--
			s.KernelNanos += uint64(kernelElapsed)
		})
		rt.mu.Lock()
		delete(rt.running, t.id)
		rt.mu.Unlock()
		if rerr != nil {
			rt.cfg.Audit.Resolve(t.auditSeq, audit.Outcome{Disposition: audit.DispError})
		}
		rt.respond(t, resp, rerr)
	}
}

func (rt *Runtime) respond(t *task, resp wire.Message, err error) {
	select {
	case t.resp <- taskResult{resp: resp, err: err}:
	default: // already answered (e.g. cancelled)
	}
}

// ErrInputTruncated reports that a kernel's input was cut while the kernel
// read it in place: the extent file behind its chunk shrank (a concurrent
// Truncate) and the read faulted. It travels as StatusInvalid.
var ErrInputTruncated = fmt.Errorf("%w: active input truncated under the kernel", pfs.ErrInvalid)

// kernelSlots bounds how many kernels are inside Process at once, across
// every Runtime in the process, at GOMAXPROCS−1 (at least one): the model's
// reserved I/O core (EstimatorConfig.IOReservedCores), enforced on the CPUs
// the process has. A dosas-server holds it per node; dosasd and in-process
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
	handle, offset := t.source()
	length := t.length()
	buf := wire.GetBuf(rt.cfg.ChunkSize) // pooled; kernels must not retain chunk slices
	defer wire.PutBuf(buf)
	// A mapped chunk faults instead of reading short if its file is cut
	// under the kernel; process turns that fault into an error.
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for done < length {
		chunkStart := time.Now()
		if t.interrupt.Load() {
			return done, true, nil
		}
		n := min(uint64(len(buf)), length-done)
		v, err := pfs.ReadView(rt.cfg.Store, handle, buf[:n], offset+done)
		if err != nil {
			return done, false, err
		}
		read := len(v.Bytes())
		if read == 0 {
			return done, false, fmt.Errorf("%w: active input beyond local data (handle %d offset %d)",
				pfs.ErrInvalid, handle, offset+done)
		}
		err = process(k, v.Bytes())
		v.Release()
		if err != nil {
			return done, false, err
		}
		done += uint64(read)
		t.processed.Store(done)
		if t.xform == nil {
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
func (rt *Runtime) execute(t *task) (*wire.ActiveReadResp, error) {
	req := t.req
	var queueWait time.Duration
	if !t.arrived.IsZero() {
		queueWait = time.Since(t.arrived)
	}
	execStart := time.Now()
	rt.cfg.Trace.RecordEvent(trace.Event{
		Kind: trace.KindStart, TraceID: t.traceID,
		ReqID: req.RequestID, Op: req.Op, Bytes: req.Length, Tenant: t.tenant,
		Phase: trace.PhaseQueueWait, Dur: queueWait, Predicted: t.predicted,
	})
	rt.reg.Histogram("active.queue_wait_us").Observe(float64(queueWait.Microseconds()))
	rt.est.KernelStarted()
	defer rt.est.KernelFinished()
	rt.est.MemReserve(uint64(rt.cfg.ChunkSize))
	defer rt.est.MemRelease(uint64(rt.cfg.ChunkSize))

	k, err := kernels.Start(req.Op, req.Params, req.ResumeState)
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
			ReqID: req.RequestID, Op: req.Op, Bytes: req.Length - done, Tenant: t.tenant,
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
			RequestID:   req.RequestID,
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
		ReqID: req.RequestID, Op: req.Op, Bytes: req.Length, Tenant: t.tenant,
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
		RequestID:   req.RequestID,
		Disposition: wire.ActiveDone,
		Result:      out,
		Processed:   done,
		TraceID:     t.traceID,
	}, nil
}

// paceChunk sleeps so the chunk just processed took at least bytes/rate
// seconds of wall time, emulating the calibrated per-core kernel rate of
// the paper's hardware on faster hosts. The rate is discounted by current
// normal-I/O pressure with the same law the Contention Estimator assumes
// (S = maxS/(1 + α·load)), so in live experiments normal I/O storms
// really do slow storage-side kernels — the physical contention the paper
// measures.
func (rt *Runtime) paceChunk(op string, bytes int, start time.Time) {
	rate := rt.est.cfg.RateFor(op)
	if rate <= 0 {
		return
	}
	if load := rt.est.normalLoad(); load > 0 {
		rate /= 1 + rt.est.cfg.LoadAlpha*load
	}
	want := time.Duration(float64(bytes) / rate * float64(time.Second))
	if elapsed := time.Since(start); want > elapsed {
		time.Sleep(want - elapsed)
	}
}

// HandleProbe implements pfs.ActiveHandler.
func (rt *Runtime) HandleProbe() (*wire.ProbeResp, error) {
	return rt.est.Probe(), nil
}

// HandleCancel implements pfs.ActiveHandler: it withdraws a queued request
// or interrupts a running one, matching on the client's RequestID.
func (rt *Runtime) HandleCancel(req *wire.CancelReq) (*wire.CancelResp, error) {
	rt.mu.Lock()
	for id, t := range rt.queued {
		// Transforms (t.req == nil) are not cancellable: their caller
		// has nothing to fall back to.
		if t.req != nil && t.req.RequestID == req.RequestID {
			if _, found := rt.queue.Remove(id); found {
				delete(rt.queued, id)
				rt.mu.Unlock()
				rt.cfg.Trace.RecordEvent(trace.Event{
					Kind: trace.KindCancel, TraceID: t.traceID,
					ReqID: req.RequestID, Op: t.op, Note: "withdrawn from queue",
				})
				rt.cfg.Audit.Resolve(t.auditSeq, audit.Outcome{Disposition: audit.DispCancelled})
				rt.respond(t, &wire.ActiveReadResp{
					RequestID:   req.RequestID,
					Disposition: wire.ActiveRejected,
					TraceID:     t.traceID,
				}, nil)
				return &wire.CancelResp{Found: true}, nil
			}
		}
	}
	for _, t := range rt.running {
		if t.req != nil && t.req.RequestID == req.RequestID {
			t.interrupt.Store(true)
			rt.mu.Unlock()
			rt.cfg.Trace.RecordEvent(trace.Event{
				Kind: trace.KindCancel, TraceID: t.traceID,
				ReqID: req.RequestID, Op: t.op, Note: "running kernel flagged",
			})
			return &wire.CancelResp{Found: true}, nil
		}
	}
	rt.mu.Unlock()
	return &wire.CancelResp{Found: false}, nil
}

var _ pfs.ActiveHandler = (*Runtime)(nil)
