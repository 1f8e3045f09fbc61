package core

import (
	"testing"
	"time"

	"dosas/internal/kernels"
	"dosas/internal/metrics"
	"dosas/internal/pfs"
	"dosas/internal/wire"
)

// newTestRuntime builds a runtime over an in-memory store pre-loaded with
// data under handle 1.
func newTestRuntime(t *testing.T, cfg RuntimeConfig, dataLen int) (*Runtime, *metrics.Registry) {
	t.Helper()
	store := pfs.NewMemStore()
	data := make([]byte, dataLen)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := store.WriteAt(1, data, 0); err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, cfg.Metrics
}

func TestRuntimeExecutesActiveRead(t *testing.T) {
	rt, _ := newTestRuntime(t, RuntimeConfig{Mode: ModeAlwaysAccept}, 10_000)
	resp, err := rt.HandleActive(&wire.ActiveReadReq{
		RequestID: 1, Handle: 1, Offset: 0, Length: 10_000, Op: "sum8",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Disposition != wire.ActiveDone {
		t.Fatalf("disposition = %d", resp.Disposition)
	}
	var want uint64
	for i := 0; i < 10_000; i++ {
		want += uint64(byte(i))
	}
	if got := le64(resp.Result); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	if resp.Processed != 10_000 {
		t.Errorf("processed = %d", resp.Processed)
	}
}

func le64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func TestRuntimeAlwaysBounceRejects(t *testing.T) {
	rt, reg := newTestRuntime(t, RuntimeConfig{Mode: ModeAlwaysBounce}, 100)
	resp, err := rt.HandleActive(&wire.ActiveReadReq{RequestID: 1, Handle: 1, Length: 100, Op: "sum8"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Disposition != wire.ActiveRejected {
		t.Fatalf("disposition = %d", resp.Disposition)
	}
	if reg.Counter("active.rejected").Value() != 1 {
		t.Error("rejection not counted")
	}
}

func TestRuntimeRejectsUnknownOp(t *testing.T) {
	rt, _ := newTestRuntime(t, RuntimeConfig{Mode: ModeAlwaysAccept}, 100)
	if _, err := rt.HandleActive(&wire.ActiveReadReq{RequestID: 1, Handle: 1, Length: 100, Op: "nope"}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestRuntimeReadBeyondLocalDataFails(t *testing.T) {
	rt, _ := newTestRuntime(t, RuntimeConfig{Mode: ModeAlwaysAccept}, 100)
	if _, err := rt.HandleActive(&wire.ActiveReadReq{RequestID: 1, Handle: 1, Offset: 50, Length: 100, Op: "sum8"}); err == nil {
		t.Fatal("read past local stream accepted")
	}
}

func TestRuntimeResumeFromCheckpoint(t *testing.T) {
	rt, _ := newTestRuntime(t, RuntimeConfig{Mode: ModeAlwaysAccept}, 1000)
	// First half on one "node"...
	first, err := rt.HandleActive(&wire.ActiveReadReq{RequestID: 1, Handle: 1, Length: 500, Op: "sum8"})
	if err != nil {
		t.Fatal(err)
	}
	// ...then hand-build a sum8 checkpoint carrying that partial total and
	// re-issue the second half with ResumeState. (Exercises the wire-level
	// resume path the ASC uses when re-offloading.)
	st := kernels.NewState()
	st.PutInt64("total", int64(le64(first.Result)))
	st.PutInt64("processed", 500)
	state, err := st.Encode("sum8")
	if err != nil {
		t.Fatal(err)
	}
	second, err := rt.HandleActive(&wire.ActiveReadReq{
		RequestID: 2, Handle: 1, Offset: 500, Length: 500, Op: "sum8", ResumeState: state,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for i := 0; i < 1000; i++ {
		want += uint64(byte(i))
	}
	if got := le64(second.Result); got != want {
		t.Errorf("resumed sum = %d, want %d", got, want)
	}
}

func TestRuntimeInterruptsUnderNormalIOPressure(t *testing.T) {
	// A slow paced kernel is running; normal I/O pressure then spikes,
	// the CE's estimate of S collapses, and the policy loop must
	// interrupt the kernel and hand back a checkpoint.
	reg := metrics.NewRegistry()
	rt, _ := newTestRuntime(t, RuntimeConfig{
		Mode:    ModeDynamic,
		Metrics: reg,
		Estimator: EstimatorConfig{
			BW:      118e6,
			RateFor: func(string) float64 { return 1e6 }, // 1 MB/s: slow
			Period:  5 * time.Millisecond,
		},
		ChunkSize: 16 << 10,
		Pace:      true,
	}, 512<<10)

	type out struct {
		resp *wire.ActiveReadResp
		err  error
	}
	done := make(chan out, 1)
	go func() {
		resp, err := rt.HandleActive(&wire.ActiveReadReq{
			RequestID: 1, Handle: 1, Length: 512 << 10, Op: "sum8",
		})
		done <- out{resp, err}
	}()
	time.Sleep(100 * time.Millisecond) // let the kernel start and make progress
	// Normal-I/O storm: 16 in-flight reads on a 2-core node.
	reg.Gauge("data.inflight").Set(16)

	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.resp.Disposition != wire.ActiveInterrupted {
			t.Fatalf("disposition = %d, want interrupted", o.resp.Disposition)
		}
		if len(o.resp.State) == 0 {
			t.Error("interrupted response lacks a checkpoint")
		}
		if o.resp.Processed == 0 || o.resp.Processed >= 512<<10 {
			t.Errorf("processed = %d", o.resp.Processed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("policy loop never interrupted the running kernel")
	}
	if reg.Counter("active.interrupted").Value() == 0 {
		t.Error("interruption not counted")
	}
}

func TestRuntimeBouncesUnderMemoryPressure(t *testing.T) {
	rt, _ := newTestRuntime(t, RuntimeConfig{
		Mode: ModeDynamic,
		Estimator: EstimatorConfig{
			BW:        118e6,
			RateFor:   func(string) float64 { return 860e6 },
			MemBudget: 1 << 20,
		},
	}, 1000)
	// Fill the memory budget past the high-water mark.
	rt.Estimator().MemReserve(950 << 10)
	resp, err := rt.HandleActive(&wire.ActiveReadReq{RequestID: 1, Handle: 1, Length: 1000, Op: "sum8"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Disposition != wire.ActiveRejected {
		t.Fatalf("disposition = %d, want rejected under memory pressure", resp.Disposition)
	}
	// Releasing the memory restores admission (sum8 is always
	// profitable to accept).
	rt.Estimator().MemRelease(950 << 10)
	resp, err = rt.HandleActive(&wire.ActiveReadReq{RequestID: 2, Handle: 1, Length: 1000, Op: "sum8"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Disposition != wire.ActiveDone {
		t.Fatalf("disposition = %d after pressure cleared", resp.Disposition)
	}
}

func TestEstimatorMemPressure(t *testing.T) {
	e, _, _ := testEstimator(EstimatorConfig{BW: 1, MemBudget: 1000})
	if e.MemPressure() != 0 {
		t.Fatal("fresh estimator under pressure")
	}
	e.MemReserve(500)
	if got := e.MemPressure(); got != 0.5 {
		t.Fatalf("pressure = %v", got)
	}
	e.MemReserve(1000)
	if got := e.MemPressure(); got != 1.5 {
		t.Fatalf("overshoot pressure = %v", got)
	}
}

func TestRuntimeCloseBouncesQueued(t *testing.T) {
	rt, _ := newTestRuntime(t, RuntimeConfig{
		Mode:      ModeAlwaysAccept,
		Estimator: EstimatorConfig{BW: 118e6, RateFor: func(string) float64 { return 1e6 }},
		ChunkSize: 16 << 10,
		Pace:      true,
	}, 256<<10)
	// Occupy the single core, then queue another request.
	results := make(chan *wire.ActiveReadResp, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			resp, err := rt.HandleActive(&wire.ActiveReadReq{
				RequestID: uint64(i + 1), Handle: 1, Length: 256 << 10, Op: "sum8",
			})
			if err == nil {
				results <- resp
			} else {
				results <- &wire.ActiveReadResp{Disposition: wire.ActiveRejected}
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	go rt.Close()
	for i := 0; i < 2; i++ {
		select {
		case <-results:
		case <-time.After(5 * time.Second):
			t.Fatal("request stranded across Close")
		}
	}
}

func TestRuntimeCancelQueuedRequest(t *testing.T) {
	rt, _ := newTestRuntime(t, RuntimeConfig{
		Mode:      ModeAlwaysAccept,
		Estimator: EstimatorConfig{BW: 118e6, RateFor: func(string) float64 { return 1e6 }},
		ChunkSize: 16 << 10,
		Pace:      true,
	}, 256<<10)
	// Fill the core with request 1, queue request 2, cancel request 2.
	done := make(chan uint8, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			resp, err := rt.HandleActive(&wire.ActiveReadReq{
				RequestID: uint64(i + 1), Handle: 1, Length: 256 << 10, Op: "sum8",
			})
			if err != nil {
				done <- 99
				return
			}
			done <- resp.Disposition
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	cr, err := rt.HandleCancel(&wire.CancelReq{RequestID: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !cr.Found {
		t.Log("request 2 was not queued when cancelled (timing); tolerated")
	}
	a, b := <-done, <-done
	if a != wire.ActiveDone && b != wire.ActiveDone {
		t.Errorf("no request completed: %d, %d", a, b)
	}
	// Cancel of an unknown id reports not-found.
	cr, err = rt.HandleCancel(&wire.CancelReq{RequestID: 777})
	if err != nil || cr.Found {
		t.Errorf("phantom cancel = %+v, %v", cr, err)
	}
}

// TestRuntimeProbeCountsBusyCores: a probe taken while a paced kernel runs
// reports one busy core of the node's two, and none once the kernel has
// returned.
func TestRuntimeProbeCountsBusyCores(t *testing.T) {
	rt, _ := newTestRuntime(t, RuntimeConfig{
		Mode:      ModeAlwaysAccept,
		Estimator: EstimatorConfig{BW: 118e6, RateFor: func(string) float64 { return 1e6 }},
		ChunkSize: 16 << 10,
		Pace:      true,
	}, 128<<10)
	done := make(chan error, 1)
	go func() {
		_, err := rt.HandleActive(&wire.ActiveReadReq{RequestID: 1, Handle: 1, Length: 128 << 10, Op: "sum8"})
		done <- err
	}()
	probe := func() *wire.ProbeResp {
		t.Helper()
		p, err := rt.HandleProbe()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := probe()
	for deadline := time.Now().Add(5 * time.Second); p.BusyCores == 0 && time.Now().Before(deadline); p = probe() {
		time.Sleep(time.Millisecond)
	}
	if p.BusyCores != 1 || p.TotalCores != NodeCores {
		t.Errorf("cores during execution = %v / %d, want 1 / %d", p.BusyCores, p.TotalCores, NodeCores)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if p = probe(); p.BusyCores != 0 {
		t.Errorf("busy cores = %v after the kernel returned", p.BusyCores)
	}
}

// TestRuntimeResultSizeFollowsParams: the scheduler prices h(d) with the
// kernel configured by the request's own params, so a full-image
// gaussian2d ships its input back and a downsample by 16 a sixteenth of it.
func TestRuntimeResultSizeFollowsParams(t *testing.T) {
	const size = 10_000
	for _, tc := range []struct {
		name, op string
		params   []byte
		want     uint64
	}{
		{"gaussian2d full", "gaussian2d", kernels.GaussianParams(100, true), size},
		{"gaussian2d digest", "gaussian2d", kernels.GaussianParams(100, false), 29},
		{"downsample 16", "downsample", kernels.DownsampleParams(16), size / 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, _ := newTestRuntime(t, RuntimeConfig{
				Mode:      ModeDynamic,
				Estimator: EstimatorConfig{BW: 118e6, RateFor: func(string) float64 { return 860e6 }},
			}, size)
			if _, err := rt.HandleActive(&wire.ActiveReadReq{
				RequestID: 1, Handle: 1, Length: size, Op: tc.op, Params: tc.params,
			}); err != nil {
				t.Fatal(err)
			}
			snap := rt.cfg.Audit.Snapshot()
			if len(snap) == 0 || snap[0].Newcomer() == nil {
				t.Fatalf("no admit record: %+v", snap)
			}
			if got := snap[0].Newcomer().ResultBytes; got != tc.want {
				t.Errorf("newcomer h(d) = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestModeStrings(t *testing.T) {
	if ModeDynamic.String() != "dosas" || ModeAlwaysAccept.String() != "as" || ModeAlwaysBounce.String() != "ts" {
		t.Error("mode names wrong")
	}
	if SchemeDOSAS.String() != "DOSAS" || SchemeAS.String() != "AS" || SchemeTS.String() != "TS" {
		t.Error("scheme names wrong")
	}
	if OnStorage.String() != "storage" || OnCompute.String() != "compute" || Migrated.String() != "migrated" {
		t.Error("where names wrong")
	}
}
