package dosas_test

// Acceptance tests for the durable telemetry archive plane: range
// queries answered from on-disk chunk files must span a cluster
// restart (pre-crash samples intact), sweep the wire with the same
// skip-unreachable discipline as the other observability sweeps, and
// stitch into a deterministic, golden-tested incident report.

import (
	"encoding/json"
	"testing"
	"time"

	"dosas"
)

// waitArchived polls until the archives answer a range query for
// series with at least min points, or the deadline passes. nodes,
// when given, names the nodes that must reach min (series like
// queue.depth exist only on storage nodes); empty means every swept
// node.
func waitArchived(t *testing.T, c *dosas.Cluster, series string, min int, nodes ...string) dosas.QueryResult {
	t.Helper()
	must := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		must[n] = true
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		res, err := c.Query(dosas.RangeQuery{Name: series})
		if err != nil {
			t.Fatal(err)
		}
		enough := len(res.Nodes) > 0
		for _, ns := range res.Nodes {
			if len(must) > 0 && !must[ns.Node] {
				continue
			}
			if len(ns.Points) < min {
				enough = false
			}
		}
		if enough {
			return res
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("archives never accumulated %d points of %s", min, series)
	return dosas.QueryResult{}
}

// The tentpole acceptance check: a range query spans a cluster restart.
// Samples archived by the first incarnation must come back from the
// second one's query plane, continuous with its fresh samples.
func TestQuerySpansRestart(t *testing.T) {
	opts := dosas.Options{
		DataServers:   2,
		TelemetryTick: 2 * time.Millisecond,
		ArchiveDir:    t.TempDir(),
		DataDir:       t.TempDir(),
	}
	c, err := dosas.StartCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := c.Connect(dosas.DOSAS)
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	writeTestFile(t, fs, "restart.bin", 1<<20)
	waitArchived(t, c, "queue.depth", 10, "data-0", "data-1")
	fs.Close()
	c.Close() // crash boundary: flush and seal the first incarnation
	restart := time.Now()

	c2 := startCluster(t, opts)
	// The pre-crash history alone satisfies a point count, so poll
	// until fresh post-restart samples join it.
	var res dosas.QueryResult
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		r, err := c2.Query(dosas.RangeQuery{Name: "queue.depth"})
		if err != nil {
			t.Fatal(err)
		}
		fresh := 0
		for _, ns := range r.Nodes {
			for _, p := range ns.Points {
				if p.UnixNano > restart.UnixNano() {
					fresh++
					break
				}
			}
		}
		if fresh >= 2 {
			res = r
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	if len(res.Nodes) != 3 { // meta + 2 data nodes
		t.Fatalf("restarted archives never produced fresh samples; swept %d nodes, want 3", len(res.Nodes))
	}
	for _, ns := range res.Nodes {
		if ns.Node == "meta" {
			continue // meta has no queue.depth probe
		}
		var before, after int
		for i, p := range ns.Points {
			if i > 0 && p.UnixNano < ns.Points[i-1].UnixNano {
				t.Fatalf("%s: points not in time order at %d", ns.Node, i)
			}
			if p.UnixNano < restart.UnixNano() {
				before++
			} else {
				after++
			}
		}
		if before == 0 {
			t.Errorf("%s: no pre-restart samples survived (%d points total)", ns.Node, len(ns.Points))
		}
		if after == 0 {
			t.Errorf("%s: no post-restart samples archived", ns.Node)
		}
	}
}

// Step reduction and cross-node aggregation: a stepped query yields
// epoch-aligned buckets, and each aggregation function merges the
// per-node series per its definition.
func TestQueryStepAndAggregate(t *testing.T) {
	c := startCluster(t, dosas.Options{
		DataServers:   2,
		TelemetryTick: 2 * time.Millisecond,
		ArchiveDir:    t.TempDir(),
	})
	waitArchived(t, c, "runtime.goroutines", 100) // 200 ms: complete steps behind the one in progress

	// Both sweeps end at the same instant, the start of the last complete
	// step but one: the newest bucket is still filling, and would hold one
	// node's sample in one sweep and all three nodes' in the other.
	step := 50 * time.Millisecond
	until := time.Now().Truncate(step).Add(-step - 1)
	res, err := c.Query(dosas.RangeQuery{Name: "runtime.goroutines", Until: until, Step: step, Agg: "sum"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Aggregated) == 0 {
		t.Fatal("aggregated series empty")
	}
	for _, p := range res.Aggregated {
		if p.UnixNano%int64(step) != 0 {
			t.Fatalf("bucket %d not aligned to step", p.UnixNano)
		}
	}
	// Every node runs at least one goroutine, so the cluster sum must
	// strictly exceed any single node's value in a bucket every node
	// reported in.
	maxRes, err := c.Query(dosas.RangeQuery{Name: "runtime.goroutines", Until: until, Step: step, Agg: "max"})
	if err != nil {
		t.Fatal(err)
	}
	reporting := map[int64]int{}
	for _, r := range []dosas.QueryResult{res, maxRes} {
		for _, n := range r.Nodes {
			for _, p := range n.Points {
				reporting[p.UnixNano]++
			}
		}
	}
	maxAt := map[int64]float64{}
	for _, p := range maxRes.Aggregated {
		maxAt[p.UnixNano] = p.Value
	}
	compared := 0
	for _, p := range res.Aggregated {
		if reporting[p.UnixNano] != 2*len(res.Nodes) {
			continue // a node started later, or pruned earlier, than the others
		}
		compared++
		if m := maxAt[p.UnixNano]; p.Value <= m {
			t.Fatalf("sum %v at %d not above per-node max %v (%d nodes reporting)", p.Value, p.UnixNano, m, len(res.Nodes))
		}
	}
	if compared == 0 {
		t.Fatal("no bucket that every node reported in")
	}

	// Node restriction keeps the sweep to one archive.
	one, err := c.Query(dosas.RangeQuery{Name: "runtime.goroutines", Node: "data-1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Nodes) != 1 || one.Nodes[0].Node != "data-1" {
		t.Fatalf("node-restricted query swept %+v", one.Nodes)
	}

	// Unknown aggregation is rejected up front.
	if _, err := c.Query(dosas.RangeQuery{Name: "x", Agg: "median"}); err == nil {
		t.Fatal("unknown aggregation accepted")
	}
}

// The wire sweep skips unreachable nodes deterministically: a dead
// address in the data-server table costs that node's series, nothing
// else.
func TestFSQuerySkipsUnreachableNodes(t *testing.T) {
	c := startCluster(t, dosas.Options{
		DataServers:   1,
		TCP:           true,
		TelemetryTick: 2 * time.Millisecond,
		ArchiveDir:    t.TempDir(),
	})
	waitArchived(t, c, "runtime.goroutines", 5)
	fs, err := dosas.Connect(dosas.ClientOptions{
		MetaAddr:  c.MetaAddr(),
		DataAddrs: []string{c.DataAddrs()[0], deadAddr(t)},
		Scheme:    dosas.DOSAS,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Close)

	res, err := fs.Query(dosas.RangeQuery{Name: "runtime.goroutines", Step: 10 * time.Millisecond, Agg: "avg"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 2 {
		t.Fatalf("sweep returned %d nodes, want 2 (meta + live data node)", len(res.Nodes))
	}
	for _, ns := range res.Nodes {
		if ns.Node == "data-1" {
			t.Fatal("dead node present in sweep")
		}
		if len(ns.Points) == 0 {
			t.Errorf("%s: no archived points over the wire", ns.Node)
		}
		if ns.EarliestNano == 0 {
			t.Errorf("%s: no retention horizon reported", ns.Node)
		}
	}
	if len(res.Aggregated) == 0 {
		t.Fatal("aggregation over partial sweep empty")
	}
}

// reportFixture builds the canned incident inputs the golden test and
// the JSON round-trip share: a firing noisy-neighbor alert naming its
// aggressor tenant, a second pending alert, events inside and outside
// the window, and archived series served by a query double.
func reportFixture() (dosas.ReportOptions, []dosas.Alert, []dosas.Event, func(dosas.RangeQuery) (dosas.QueryResult, error)) {
	base := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	fired := base.Add(10 * time.Second)
	now := base.Add(30 * time.Second)

	alerts := []dosas.Alert{
		{Rule: "queue-depth-high", Series: "queue.depth", State: dosas.AlertPending,
			Severity: "warn", Node: "data-1", Value: 12, Detail: "queue deep",
			SinceUnixNano: base.Add(20 * time.Second).UnixNano()},
		{Rule: "noisy-neighbor", Series: "tenant.wait.share", State: dosas.AlertFiring,
			Severity: "page", Node: "data-0", Value: 0.82, Detail: "tenant hog dominates queue wait",
			SinceUnixNano: fired.UnixNano(), FiredUnixNano: fired.UnixNano()},
		{Rule: "latency-slo", Series: "read.p99", State: dosas.AlertInactive,
			Severity: "page", Node: "data-0"}, // inactive: excluded
	}
	events := []dosas.Event{
		{Seq: 1, UnixNano: base.Add(-time.Minute).UnixNano(), Level: "info",
			Node: "data-0", Sub: "runtime", Msg: "before the window"}, // clipped
		{Seq: 2, UnixNano: fired.UnixNano(), Level: "warn", Node: "data-0", Sub: "slo",
			Msg: "alert firing", Fields: []dosas.EventField{
				{K: "rule", V: "noisy-neighbor"}, {K: "tenant", V: "hog"}, {K: "share", V: "0.82"}}},
		{Seq: 3, UnixNano: base.Add(12 * time.Second).UnixNano(), Level: "info",
			Node: "data-0", Sub: "runtime", Msg: "request bounced"},
	}
	series := map[string][]float64{
		"queue.depth":       {1, 5, 9, 12},
		"tenant.wait.share": {0.1, 0.4, 0.8, 0.82},
	}
	query := func(q dosas.RangeQuery) (dosas.QueryResult, error) {
		vals := series[q.Name]
		points := make([]dosas.SeriesPoint, len(vals))
		for i, v := range vals {
			points[i] = dosas.SeriesPoint{UnixNano: fired.Add(time.Duration(i) * time.Second).UnixNano(), Value: v}
		}
		return dosas.QueryResult{Name: q.Name, Nodes: []dosas.NodeSeries{
			{Node: "meta"},
			{Node: "data-0", Points: points, EarliestNano: base.UnixNano()},
		}}, nil
	}
	return dosas.ReportOptions{Alert: "noisy-neighbor", Now: now}, alerts, events, query
}

// The incident-report formatter is golden-tested: canned inputs shaped
// like a noisy-neighbor storm must render byte-for-byte this bundle —
// naming the aggressor tenant, the firing alert, and the telemetry
// window.
func TestIncidentReportGolden(t *testing.T) {
	opts, alerts, events, query := reportFixture()
	rep, err := dosas.BuildIncidentReport(opts, alerts, events, query)
	if err != nil {
		t.Fatal(err)
	}
	const golden = `INCIDENT REPORT  rule=noisy-neighbor
window  2026-08-08 09:59:40.000 .. 2026-08-08 10:01:00.000 (1m20s)

ALERTS
NODE     RULE                 STATE     SEV   VALUE      DETAIL
data-0   noisy-neighbor       FIRING    page  0.82       tenant hog dominates queue wait
data-1   queue-depth-high     PENDING   warn  12         queue deep

EVENTS (2)
10:00:10.000 WARN  data-0/slo alert firing rule=noisy-neighbor tenant=hog share=0.82
10:00:12.000 INFO  data-0/runtime request bounced

TELEMETRY queue.depth
  meta     (no archived data)
  data-0   n=4    min=1        mean=6.75     max=12       ▁▃▆█

TELEMETRY tenant.wait.share
  meta     (no archived data)
  data-0   n=4    min=0.1      mean=0.53     max=0.82     ▁▄▇█
`
	got := dosas.FormatIncidentReport(rep)
	if got != golden {
		t.Fatalf("report drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}

// The JSON form round-trips with the same contents the text shows.
func TestIncidentReportJSON(t *testing.T) {
	opts, alerts, events, query := reportFixture()
	rep, err := dosas.BuildIncidentReport(opts, alerts, events, query)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back dosas.IncidentReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Rule != "noisy-neighbor" || len(back.Alerts) != 2 || len(back.Events) != 2 || len(back.Series) != 2 {
		t.Fatalf("round-trip = %+v", back)
	}
	if back.Alerts[0].State != dosas.AlertFiring || back.Alerts[0].Node != "data-0" {
		t.Fatalf("focus alert not first: %+v", back.Alerts[0])
	}
	if back.Events[0].Fields[1].V != "hog" {
		t.Fatalf("aggressor tenant lost: %+v", back.Events[0])
	}

	// A rule with no recorded transitions is an error, not an empty
	// report.
	if _, err := dosas.BuildIncidentReport(dosas.ReportOptions{Alert: "no-such-rule"}, alerts, events, query); err == nil {
		t.Fatal("unknown rule accepted")
	}
}

// An explicit-window report (no focus rule) clips events and includes
// every non-inactive alert.
func TestIncidentReportExplicitWindow(t *testing.T) {
	_, alerts, events, query := reportFixture()
	base := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	rep, err := dosas.BuildIncidentReport(dosas.ReportOptions{
		Since: base.Add(11 * time.Second), Until: base.Add(20 * time.Second),
		Series: []string{"queue.depth"},
	}, alerts, events, query)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rule != "" || len(rep.Alerts) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Events) != 1 || rep.Events[0].Msg != "request bounced" {
		t.Fatalf("window clipping wrong: %+v", rep.Events)
	}
	if len(rep.Series) != 1 || rep.Series[0].Name != "queue.depth" {
		t.Fatalf("series override ignored: %+v", rep.Series)
	}
}

// A live cluster report assembles end to end through Cluster.Report.
func TestClusterReportLive(t *testing.T) {
	c := startCluster(t, dosas.Options{
		DataServers:   1,
		TelemetryTick: 2 * time.Millisecond,
		ArchiveDir:    t.TempDir(),
	})
	waitArchived(t, c, "runtime.goroutines", 5)
	rep, err := c.Report(dosas.ReportOptions{
		Since:  time.Now().Add(-time.Minute),
		Series: []string{"runtime.goroutines"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 1 || len(rep.Series[0].Nodes) != 2 {
		t.Fatalf("live report series = %+v", rep.Series)
	}
	for _, ns := range rep.Series[0].Nodes {
		if len(ns.Points) == 0 {
			t.Errorf("%s: live report has no archived points", ns.Node)
		}
	}
	out := dosas.FormatIncidentReport(rep)
	if out == "" {
		t.Fatal("empty formatted report")
	}
}
