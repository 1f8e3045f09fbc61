package dosas_test

import (
	"fmt"
	"testing"

	"dosas"
	"dosas/internal/audit"
	"dosas/internal/trace"
)

// assertDecisionsConserved checks that the four places a storage node
// records its scheduling decisions agree, on every storage node of c: its
// counters (Stats), its trace ring (TraceEvents), its tenant table
// (Tenants) and, under dynamic scheduling, its decision log
// (DecisionLogAll). policy is the cluster's. Call it at quiescence: every
// request answered, none failed, the cluster not closed. It fails if a
// trace or decision ring has overwritten entries, since a count over a
// suffix proves nothing.
func assertDecisionsConserved(t *testing.T, c *dosas.Cluster, policy dosas.Policy) {
	t.Helper()
	stats := c.Stats()
	usage := map[string]dosas.TenantUsage{}
	for _, r := range c.Tenants() {
		u := usage[r.Node]
		for _, row := range r.Usage {
			u.ActiveOps += row.ActiveOps
			u.Bounces += row.Bounces
			u.Interrupts += row.Interrupts
			u.Inflight += row.Inflight
		}
		usage[r.Node] = u
	}
	decisions := map[string][]dosas.DecisionRecord{}
	for _, r := range c.DecisionLogAll() {
		decisions[r.Node] = append(decisions[r.Node], r)
	}
	for i := 0; ; i++ {
		node := fmt.Sprintf("data-%d", i)
		st, ok := stats[node]
		if !ok {
			if i == 0 {
				t.Fatal("conservation: the cluster has no storage node")
			}
			return
		}
		evs, err := c.TraceEvents(i)
		if err != nil {
			t.Fatalf("conservation: %s: %v", node, err)
		}
		if n := len(evs); n > 0 && (evs[0].Seq != 1 || evs[n-1].Seq != uint64(n)) {
			t.Fatalf("conservation: %s: the trace ring holds events %d..%d of %d: it overwrote some",
				node, evs[0].Seq, evs[n-1].Seq, evs[n-1].Seq)
		}
		recs := decisions[node]
		if n := len(recs); n > 0 && (recs[0].Seq != 1 || recs[n-1].Seq != uint64(n)) {
			t.Fatalf("conservation: %s: the decision log holds records %d..%d: it overwrote some",
				node, recs[0].Seq, recs[n-1].Seq)
		}
		events := map[trace.Kind]int64{}
		var queuedCancels int64
		for _, ev := range evs {
			events[ev.Kind]++
			if ev.Kind == trace.KindCancel && ev.Note == "withdrawn from queue" {
				queuedCancels++
			}
		}
		outcomes := map[string]int64{}
		for _, r := range recs {
			if r.Trigger != audit.TriggerAdmit {
				continue
			}
			if r.Outcome == nil {
				t.Errorf("conservation: %s: decision %d has no outcome at quiescence", node, r.Seq)
				continue
			}
			outcomes[r.Outcome.Disposition]++
		}
		u := usage[node]
		counter := st.Counter
		arrivals, completed, migrated := counter("active.arrivals"), counter("active.completed"), counter("active.migrated")
		rejected, bouncedQueued := counter("active.rejected"), counter("active.bounced_queued")
		bounces := rejected + counter("active.rejected_memory") + bouncedQueued

		agree := func(what string, values ...int64) {
			t.Helper()
			for _, v := range values[1:] {
				if v != values[0] {
					t.Errorf("conservation: %s: %s disagree: %v", node, what, values)
					return
				}
			}
		}
		agree("arrivals (counter, arrive events, tenant active ops)",
			arrivals, events[trace.KindArrive], int64(u.ActiveOps))
		agree("bounces (counters, reject events, tenant bounces)",
			bounces, events[trace.KindReject], int64(u.Bounces))
		agree("completions (counter, complete events)", completed, events[trace.KindComplete])
		agree("migrations (counter, migrate events, tenant interrupts)",
			migrated, events[trace.KindMigrate], int64(u.Interrupts))
		agree("interrupts (counter, interrupt events)", counter("active.interrupted"), events[trace.KindInterrupt])
		if policy == dosas.Dynamic {
			agree("bounces at arrival (counter, audit bounced)", rejected, outcomes[audit.DispBounced])
			agree("bounces from the queue (counter, audit bounced-queued)", bouncedQueued, outcomes[audit.DispBouncedQueued])
			agree("completions (counter, audit done)", completed, outcomes[audit.DispDone])
			agree("migrations (counter, audit interrupted)", migrated, outcomes[audit.DispInterrupted])
		}
		if n := outcomes[audit.DispError] + outcomes[audit.DispShutdown]; n != 0 {
			t.Errorf("conservation: %s: %d decisions ended in error or shutdown; the check needs none", node, n)
		}
		agree("arrivals and their ends (arrivals, completed + bounced + migrated + cancelled from the queue)",
			arrivals, completed+bounces+migrated+queuedCancels)
		if u.Inflight != 0 {
			t.Errorf("conservation: %s: tenant inflight %d at quiescence, want 0", node, u.Inflight)
		}
	}
}
