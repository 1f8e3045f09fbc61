package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"dosas/internal/audit"
	"dosas/internal/wire"
)

// TestRuntimeRecordsAcceptedDecision: a dynamic-mode runtime must append
// an admit record for an accepted request and resolve it with the
// measured kernel outcome once the request completes.
func TestRuntimeRecordsAcceptedDecision(t *testing.T) {
	rt, _ := newTestRuntime(t, RuntimeConfig{
		Mode: ModeDynamic,
		Node: "data-7",
		Estimator: EstimatorConfig{
			BW:      118e6,
			RateFor: func(string) float64 { return 860e6 }, // fast: accept
		},
	}, 10_000)
	resp, err := rt.HandleActive(&wire.ActiveReadReq{
		RequestID: 7, TraceID: 0xfeed, Handle: 1, Length: 10_000, Op: "sum8",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Disposition != wire.ActiveDone {
		t.Fatalf("disposition = %d, want done", resp.Disposition)
	}

	snap := rt.cfg.Audit.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("audit records = %d, want 1", len(snap))
	}
	r := snap[0]
	if r.Trigger != audit.TriggerAdmit || r.Solver != "maxgain" || r.Node != "data-7" {
		t.Errorf("record header: %+v", r)
	}
	if r.Env.BW != 118e6 || r.Env.StorageRate <= 0 || r.Env.ComputeRate <= 0 {
		t.Errorf("env not snapshotted: %+v", r.Env)
	}
	nc := r.Newcomer()
	if nc == nil {
		t.Fatal("admit record has no newcomer")
	}
	if nc.ReqID != 7 || nc.TraceID != 0xfeed || nc.Op != "sum8" || nc.Bytes != 10_000 {
		t.Errorf("newcomer identity: %+v", nc)
	}
	if !nc.Accept {
		t.Error("accepted request recorded as bounced")
	}
	if nc.PredActive <= 0 || nc.PredNormal <= 0 || nc.PredClient <= 0 {
		t.Errorf("predicted costs missing: %+v", nc)
	}
	if nc.FlipDelta == 0 {
		t.Error("single-request batch should carry a decision margin")
	}
	if r.PredChosen <= 0 || r.PredAllActive <= 0 || r.PredAllNormal <= 0 {
		t.Errorf("objective values missing: %+v", r)
	}
	if r.Outcome == nil {
		t.Fatal("completed request left its record unresolved")
	}
	if r.Outcome.Disposition != audit.DispDone {
		t.Errorf("disposition = %q, want done", r.Outcome.Disposition)
	}
	if r.Outcome.KernelNS <= 0 || r.Outcome.Processed != 10_000 {
		t.Errorf("measured outcome: %+v", r.Outcome)
	}
}

// TestRuntimeRecordsBouncedDecision: a rejected arrival must leave an
// admit record whose newcomer is marked bounced, resolved immediately.
func TestRuntimeRecordsBouncedDecision(t *testing.T) {
	rt, _ := newTestRuntime(t, RuntimeConfig{
		Mode: ModeDynamic,
		Estimator: EstimatorConfig{
			BW:      118e6,
			RateFor: func(string) float64 { return 1e6 },
		},
	}, 100_000)
	// Heavy normal I/O divides the storage rate by 1 + 20/2 while the
	// compute node keeps its full rate: shipping the raw bytes is clearly
	// cheaper, so the solver bounces even a lone arrival.
	holdNormal(t, rt, 20)
	resp, err := rt.HandleActive(&wire.ActiveReadReq{
		RequestID: 9, TraceID: 0xbee, Handle: 1, Length: 100_000, Op: "sum8",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Disposition != wire.ActiveRejected {
		t.Fatalf("disposition = %d, want rejected", resp.Disposition)
	}
	snap := rt.cfg.Audit.Snapshot()
	if len(snap) == 0 {
		t.Fatal("bounce left no audit record")
	}
	r := snap[0]
	nc := r.Newcomer()
	if nc == nil || nc.Accept {
		t.Fatalf("bounced newcomer recorded as accepted: %+v", nc)
	}
	if r.Outcome == nil || r.Outcome.Disposition != audit.DispBounced {
		t.Fatalf("outcome = %+v, want bounced", r.Outcome)
	}
	// The recorded log must replay: the recorded policy is a fixed point
	// and the production solver reproduces its own choice.
	rep := audit.Replay(snap, audit.Recorded{}, audit.Overrides{})
	if rep.Decisions != 1 || rep.AgreementRate != 1 {
		t.Errorf("recorded replay: %+v", rep)
	}
	same := audit.Replay(snap, ReplayPolicy(MaxGain{}), audit.Overrides{})
	if same.Agreements != 1 {
		t.Errorf("production solver disagrees with its own recording: %+v", same)
	}
}

// TestRuntimeStaticModesRecordNothing: the audit log captures solver
// invocations; the always-accept/always-bounce baselines never consult
// one, so their logs stay empty.
func TestRuntimeStaticModesRecordNothing(t *testing.T) {
	for _, mode := range []Mode{ModeAlwaysAccept, ModeAlwaysBounce} {
		rt, _ := newTestRuntime(t, RuntimeConfig{Mode: mode}, 100)
		if _, err := rt.HandleActive(&wire.ActiveReadReq{RequestID: 1, Handle: 1, Length: 100, Op: "sum8"}); err != nil {
			t.Fatal(err)
		}
		if n := rt.cfg.Audit.Len(); n != 0 {
			t.Errorf("%v: %d audit records, want 0", mode, n)
		}
	}
}

// TestSolverAndPolicyByName pins the CLI-facing names of the replay
// policies: the four solvers and the recorded decisions.
func TestSolverAndPolicyByName(t *testing.T) {
	for name, want := range map[string]string{
		"exhaustive": "exhaustive",
		"maxgain":    "maxgain",
		"max-gain":   "maxgain",
		"All-Active": "all-active",
		"allnormal":  "all-normal",
		"recorded":   "recorded",
	} {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		if p.Name() != want {
			t.Errorf("PolicyByName(%q) = %q", name, p.Name())
		}
	}
	if _, err := PolicyByName("nope"); err == nil || !strings.Contains(err.Error(), "exhaustive") {
		t.Errorf("unknown policy error should list valid names, got %v", err)
	}
}

func TestEstimatorConfigValidate(t *testing.T) {
	valid := EstimatorConfig{BW: 118e6}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []EstimatorConfig{
		{BW: 0},
		{BW: -1},
		{BW: math.NaN()},
		{BW: math.Inf(1)},
		{BW: 1, Period: -time.Second},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
		if _, err := NewEstimator(cfg, nil); err == nil {
			t.Errorf("NewEstimator accepted bad config %d", i)
		}
	}
	// NewRuntime surfaces the validation error rather than panicking.
	if _, err := NewRuntime(RuntimeConfig{Estimator: EstimatorConfig{BW: math.NaN()}}); err == nil {
		t.Error("NewRuntime accepted a NaN bandwidth")
	}
}
