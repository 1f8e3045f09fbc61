package dosas_test

import (
	"strings"
	"testing"

	"dosas"
)

// TestDecisionLogEndToEnd is the tentpole acceptance path: a dynamic
// cluster records every solver invocation, the log is fetchable over the
// wire, renders as a human-readable rationale, and replays under
// alternative policies with per-request regret.
func TestDecisionLogEndToEnd(t *testing.T) {
	c := startCluster(t, dosas.Options{DataServers: 2, Policy: dosas.Dynamic})
	fs := connect(t, c, dosas.DOSAS)
	f := writeTestFile(t, fs, "audit/data", 300_000)

	res, err := f.ReadEx("sum8", nil, 0, f.Size())
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == 0 {
		t.Fatal("result carries no TraceID")
	}

	// In-process view: every stripe-holding node decided something.
	local := c.DecisionLogAll()
	if len(local) == 0 {
		t.Fatal("dynamic cluster recorded no decisions")
	}
	for _, r := range local {
		if r.Solver != "maxgain" {
			t.Fatalf("record solver %q, want the runtime's maxgain", r.Solver)
		}
	}

	// Wire view: the sweep fetches the same decisions, stamped per node.
	records, dropped, err := fs.DecisionLog(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(local) || dropped != 0 {
		t.Fatalf("wire sweep: %d records (dropped %d), local %d", len(records), dropped, len(local))
	}
	nc := records[0].Newcomer()
	if nc == nil || nc.Op != "sum8" || nc.PredActive <= 0 {
		t.Fatalf("first decision's newcomer: %+v", nc)
	}
	if records[0].Outcome == nil {
		t.Fatal("completed request left its decision unresolved")
	}

	// The trace filter narrows to this request's decisions only.
	traced, _, err := fs.DecisionLog(0, res.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced) == 0 {
		t.Fatal("trace filter lost the request's decisions")
	}
	for _, r := range traced {
		if nc := r.Newcomer(); nc != nil && nc.TraceID != res.TraceID {
			t.Fatalf("foreign trace in filtered log: %+v", nc)
		}
	}

	// Rendering: the rationale names the op, the verdict and the costs.
	text := dosas.FormatDecisions(records)
	for _, want := range []string{"sum8", "solver=maxgain", "RUN-ACTIVE", "x=", "margin="} {
		if !strings.Contains(text, want) {
			t.Errorf("explain output lacks %q:\n%s", want, text)
		}
	}

	// Counterfactuals: every policy replays, the recorded log is a fixed
	// point, and regret bookkeeping holds.
	for _, policy := range dosas.ReplayPolicies() {
		rep, err := dosas.ReplayDecisions(records, policy, dosas.ReplayOverrides{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Decisions == 0 {
			t.Fatalf("%s: no decisions replayed", policy)
		}
		if rep.RegretSeconds < 0 || rep.TotalSeconds < rep.OracleSeconds-1e-9 {
			t.Fatalf("%s: regret bookkeeping broken: %+v", policy, rep)
		}
		if policy == "recorded" && rep.AgreementRate != 1 {
			t.Fatalf("recorded policy is not a fixed point: %+v", rep)
		}
	}

	if _, err := dosas.ReplayDecisions(records, "bogus", dosas.ReplayOverrides{}); err == nil {
		t.Error("unknown replay policy accepted")
	}
	if _, err := c.DecisionLog(99); err == nil {
		t.Error("out-of-range node accepted")
	}
}
