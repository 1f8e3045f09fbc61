package dosas_test

// Acceptance tests for the operational plane: a contention storm on a
// live cluster must walk a burn-rate alert through pending → firing →
// resolved, record the transitions in the event log, degrade Health
// while firing, and expose the whole story over the wire and in the
// OpenMetrics rendering — while a quiet cluster fires nothing at all.
// A second group exercises the wire-sweep error paths: a node that
// cannot be reached yields a synthetic not-ready health report and is
// skipped — deterministically — by the series/events/alerts sweeps.

import (
	"strings"
	"sync"
	"testing"
	"time"

	"dosas"
	"dosas/internal/openmetrics"
)

// stormRules is a burn-rate rule with windows shrunk to test scale.
// Arrivals land in bursts a few hundred milliseconds apart (one burst
// per storm round), so the windows must span several rounds to see a
// steady breach — yet stay short enough that the alert resolves within
// a couple of seconds of calm.
func stormRules(t *testing.T) []dosas.SLORule {
	t.Helper()
	rules, err := dosas.ParseSLORules([]byte(`[{
		"name": "storm-burn", "kind": "burn_rate",
		"series": "bounce.delta", "denom": "arrivals.delta",
		"objective": 0.02, "factor": 2,
		"short_window": "600ms", "long_window": "1200ms",
		"for": "100ms", "severity": "page"
	}]`))
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

// startStorm keeps rounds of 8 concurrent sum8 reads running until the
// returned stop function is called.
func startStorm(t *testing.T, fs *dosas.FS, name string, length uint64) (stop func()) {
	t.Helper()
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
				stormRead(t, fs, name, 8, length)
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(quit); <-done }) }
}

// alertNamed finds one node's status for a rule — every engine carries
// the full rule set, so the aggregate holds one entry per (node, rule).
func alertNamed(alerts []dosas.Alert, node, rule string) (dosas.Alert, bool) {
	for _, a := range alerts {
		if a.Node == node && a.Rule == rule {
			return a, true
		}
	}
	return dosas.Alert{}, false
}

// TestAlertLifecycleOnStorm drives a custom tiny-window burn-rate rule
// through its full lifecycle on a real contended cluster and checks
// every surface that is supposed to show it.
func TestAlertLifecycleOnStorm(t *testing.T) {
	orig := dosas.RateFor("sum8")
	dosas.SetRate("sum8", 15e6)
	defer dosas.SetRate("sum8", orig)

	c := startCluster(t, dosas.Options{
		DataServers:   1,
		Policy:        dosas.Dynamic,
		LinkRate:      30e6,
		Pace:          true,
		TelemetryTick: 2 * time.Millisecond,
		SLORules:      stormRules(t),
	})
	fs, err := c.ConnectClient(dosas.ClientOptions{Scheme: dosas.DOSAS, Pace: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Close)

	const reqBytes = 1 << 20
	writeTestFile(t, fs, "storm.bin", reqBytes)
	time.Sleep(20 * time.Millisecond) // quiet baseline ticks

	if a, ok := alertNamed(c.Alerts(), "data-0", "storm-burn"); !ok {
		t.Fatal("storm-burn rule missing from Cluster.Alerts before load")
	} else if a.State != "inactive" {
		t.Fatalf("baseline state = %s, want inactive", a.State)
	}

	stop := startStorm(t, fs, "storm.bin", reqBytes)
	defer stop()

	// Poll while the storm runs until the rule fires, then check the
	// surfaces that must reflect a firing alert before stopping the load.
	var firing dosas.Alert
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if a, ok := alertNamed(c.Alerts(), "data-0", "storm-burn"); ok && a.State == "firing" {
			firing = a
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if firing.State != "firing" {
		stop()
		t.Fatalf("storm-burn never fired; decisions = %+v", c.DecisionMetrics())
	}
	if firing.Node != "data-0" || firing.Severity != "page" || firing.FiredUnixNano == 0 {
		t.Fatalf("firing alert = %+v", firing)
	}

	// The wire sweep sees the same alert dosasctl alerts would print.
	wireAlerts, err := fs.Alerts()
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := alertNamed(wireAlerts, "data-0", "storm-burn"); !ok {
		t.Fatal("storm-burn missing from wire alert sweep")
	} else if a.Node != "data-0" {
		t.Fatalf("wire alert node = %q, want data-0", a.Node)
	}
	if out := dosas.FormatAlerts(wireAlerts); !strings.Contains(out, "storm-burn") {
		t.Fatalf("FormatAlerts lost the rule:\n%s", out)
	}

	// A firing page-severity alert must degrade the node's health.
	sawAlertCheck := false
	for _, r := range c.Health() {
		if r.Node != "data-0" {
			continue
		}
		for _, chk := range r.Checks {
			if chk.Name == "alerts" && !chk.OK {
				sawAlertCheck = true
			}
		}
	}
	if !sawAlertCheck {
		t.Fatal("data-0 health has no failing alerts check while firing")
	}

	// The OpenMetrics rendering carries the alert state under node labels.
	var b strings.Builder
	if err := openmetrics.Render(&b, c.MetricsSources()); err != nil {
		t.Fatal(err)
	}
	om := b.String()
	for _, want := range []string{`node="data-0"`, "dosas_slo_alert", "dosas_telemetry", "# EOF"} {
		if !strings.Contains(om, want) {
			t.Fatalf("OpenMetrics rendering missing %q:\n%.2000s", want, om)
		}
	}

	// Calm: with the load gone both burn windows drain and the alert
	// must resolve on its own.
	stop()
	resolved := false
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if a, ok := alertNamed(c.Alerts(), "data-0", "storm-burn"); ok && a.State == "resolved" {
			if a.ResolvedUnixNano == 0 {
				t.Fatalf("resolved alert without timestamp: %+v", a)
			}
			resolved = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !resolved {
		a, _ := alertNamed(c.Alerts(), "data-0", "storm-burn")
		t.Fatalf("alert never resolved after calm: %+v", a)
	}

	// Every transition was journaled as a structured event.
	msgs := map[string]bool{}
	for _, ev := range c.Events(dosas.EventDebug, 0) {
		if ev.Sub == "slo" {
			msgs[ev.Msg] = true
		}
	}
	for _, want := range []string{"alert pending", "alert firing", "alert resolved"} {
		if !msgs[want] {
			t.Fatalf("event log missing %q; slo events = %v", want, msgs)
		}
	}
}

// TestBuiltinRulesQuietAndStorm checks the rules shipped by default: a
// healthy cluster serving ordinary traffic fires nothing, and the
// built-in bounce-budget burn-rate rule catches a sustained storm.
func TestBuiltinRulesQuietAndStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained storm")
	}
	orig := dosas.RateFor("sum8")
	dosas.SetRate("sum8", 15e6)
	defer dosas.SetRate("sum8", orig)

	c := startCluster(t, dosas.Options{
		DataServers:   1,
		Policy:        dosas.Dynamic,
		LinkRate:      30e6,
		Pace:          true,
		TelemetryTick: 2 * time.Millisecond,
	})
	fs, err := c.ConnectClient(dosas.ClientOptions{Scheme: dosas.DOSAS, Pace: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Close)

	const reqBytes = 1 << 20
	writeTestFile(t, fs, "builtin.bin", reqBytes)

	// Steady state: ordinary reads, no alerts beyond inactive.
	f, err := fs.Open("builtin.bin")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := f.ReadEx("sum8", nil, 0, 64<<10); err != nil {
			t.Fatal(err)
		}
	}
	// Let the telemetry ring turn over once (600 new points) so warm-up
	// transients — the estimator's first error samples — age out of the
	// rate-of-change windows before judging steady state. Ticks stretch on
	// a loaded host, so wait on the points, not on a clock.
	awaitRingTurnover(t, c, "data-0", "est.error.pct")
	for _, a := range c.Alerts() {
		if a.State == "pending" || a.State == "firing" {
			t.Fatalf("quiet cluster raised %s alert %q: %+v", a.State, a.Rule, a)
		}
	}

	// Sustained storm: the built-in rule's windows span seconds, so keep
	// the load on until it fires.
	stop := startStorm(t, fs, "builtin.bin", reqBytes)
	defer stop()
	fired := false
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if a, ok := alertNamed(c.Alerts(), "data-0", "bounce-budget-burn"); ok && a.State == "firing" {
			fired = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop()
	if !fired {
		a, _ := alertNamed(c.Alerts(), "data-0", "bounce-budget-burn")
		t.Fatalf("built-in bounce-budget-burn never fired under storm: %+v (decisions %+v)",
			a, c.DecisionMetrics())
	}
}

// awaitRingTurnover waits, for at most a minute, until every point the
// node's ring of series holds is newer than the newest one it held on
// entry — the ring has turned over — and then for one more tick, so the
// alert rules have been judged on a turned-over ring.
func awaitRingTurnover(t *testing.T, c *dosas.Cluster, node, series string) {
	t.Helper()
	await := func(what string, ok func(pts []dosas.SeriesPoint) bool) {
		deadline := time.Now().Add(time.Minute)
		for {
			for _, s := range c.Series(0)[node] {
				if s.Name == series && len(s.Points) > 0 && ok(s.Points) {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s's %s ring: no %s within a minute", node, series, what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	var entry, turned int64
	await("point", func(pts []dosas.SeriesPoint) bool { entry = pts[len(pts)-1].UnixNano; return true })
	await("turnover", func(pts []dosas.SeriesPoint) bool {
		turned = pts[len(pts)-1].UnixNano
		return pts[0].UnixNano > entry
	})
	await("tick after the turnover", func(pts []dosas.SeriesPoint) bool { return pts[len(pts)-1].UnixNano > turned })
}

// TestMetricsScrapeRepeatsNoSample scrapes a cluster whose nodes run the
// alert engine: OpenMetrics forbids a repeated sample, so no (name,
// labels) pair may appear twice.
func TestMetricsScrapeRepeatsNoSample(t *testing.T) {
	c := startCluster(t, dosas.Options{DataServers: 2, TelemetryTick: 2 * time.Millisecond})
	fs := connect(t, c, dosas.DOSAS)
	writeTestFile(t, fs, "scrape.bin", 256<<10)
	awaitTicks := time.Now().Add(10 * time.Second)
	for len(c.Series(0)["data-0"]) == 0 || len(c.Series(0)["data-0"][0].Points) < 2 {
		if time.Now().After(awaitTicks) {
			t.Fatal("no telemetry samples within 10 s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var b strings.Builder
	if err := openmetrics.Render(&b, c.MetricsSources()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "dosas_slo_firing{") {
		t.Fatal("the scrape has no dosas_slo_firing sample: is the alert engine on?")
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key := line[:strings.LastIndexByte(line, ' ')] // name{labels}
		if seen[key] {
			t.Errorf("sample %s appears twice", key)
		}
		seen[key] = true
	}
}

// deadAddr reserves a loopback port and releases it, yielding an
// address that refuses connections immediately.
func deadAddr(t *testing.T) string {
	t.Helper()
	return freeAddrs(t, 1)[0]
}

// TestSweepsSkipUnreachableNodes connects a client whose data-server
// table names one live node and one dead address, then checks every
// wire sweep's error path: Health synthesises a not-ready report for
// the dead node, while Series, Events, and Alerts skip it and still
// return the reachable nodes — the same way on every sweep.
func TestSweepsSkipUnreachableNodes(t *testing.T) {
	c := startCluster(t, dosas.Options{
		DataServers:   1,
		TCP:           true,
		TelemetryTick: 2 * time.Millisecond,
	})
	fs, err := dosas.Connect(dosas.ClientOptions{
		MetaAddr:  c.MetaAddr(),
		DataAddrs: []string{c.DataAddrs()[0], deadAddr(t)},
		Scheme:    dosas.DOSAS,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Close)

	// Health: three reports, the dead node not-ready with a failing
	// "reachable" check — and nothing else failing on the live ones.
	reports := fs.Health()
	if len(reports) != 3 {
		t.Fatalf("health sweep returned %d reports, want 3", len(reports))
	}
	byNode := map[string]dosas.HealthReport{}
	for _, r := range reports {
		byNode[r.Node] = r
	}
	dead, ok := byNode["data-1"]
	if !ok {
		t.Fatalf("no synthetic report for dead node: %+v", reports)
	}
	if dead.Ready {
		t.Fatal("dead node reported ready")
	}
	if len(dead.Checks) != 1 || dead.Checks[0].Name != "reachable" || dead.Checks[0].OK {
		t.Fatalf("dead node checks = %+v, want one failing reachable check", dead.Checks)
	}
	for _, n := range []string{"meta", "data-0"} {
		if r, ok := byNode[n]; !ok || !r.Ready {
			t.Fatalf("live node %s not ready in partial sweep: %+v", n, byNode[n])
		}
	}

	// Series / Events / Alerts: the dead node is skipped without error,
	// and two identical sweeps agree on exactly which nodes answered.
	for sweep := 0; sweep < 2; sweep++ {
		series, err := fs.Series(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := series["data-1"]; ok {
			t.Fatal("series sweep returned data for the dead node")
		}
		for _, n := range []string{"meta", "data-0"} {
			if len(series[n]) == 0 {
				t.Fatalf("sweep %d: no series from live node %s", sweep, n)
			}
		}

		pages, err := fs.Events(nil, dosas.EventDebug, 0)
		if err != nil {
			t.Fatal(err)
		}
		var nodes []string
		for _, p := range pages {
			nodes = append(nodes, p.Node)
			if p.Node == "data-1" {
				t.Fatal("events sweep returned a page for the dead node")
			}
		}
		if len(nodes) != 2 {
			t.Fatalf("sweep %d: events pages from %v, want meta and data-0", sweep, nodes)
		}

		alerts, err := fs.Alerts()
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range alerts {
			if a.Node == "data-1" {
				t.Fatalf("alert sweep returned the dead node: %+v", a)
			}
		}
		if len(alerts) == 0 {
			t.Fatalf("sweep %d: alert sweep returned nothing from live nodes", sweep)
		}
	}

	// DecisionLog sweeps skip the dead node the same way: after one
	// active read lands a decision on the live node, the sweep returns
	// it without erroring on data-1.
	writeTestFile(t, fs, "sweep.bin", 64<<10)
	f, err := fs.Open("sweep.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadEx("sum8", nil, 0, 64<<10); err != nil {
		t.Fatal(err)
	}
	records, _, err := fs.DecisionLog(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("decision-log sweep lost the live node's records")
	}
	for _, r := range records {
		if r.Node != "data-0" {
			t.Fatalf("decision record from unexpected node: %+v", r)
		}
	}

	// The live node's events include the runtime start marker, proving
	// the page content survived the partial sweep.
	pages, err := fs.Events(nil, dosas.EventDebug, 0)
	if err != nil {
		t.Fatal(err)
	}
	var all []dosas.Event
	for _, p := range pages {
		all = append(all, p.Events...)
	}
	merged := dosas.MergeEvents(all)
	found := false
	for _, ev := range merged {
		if ev.Msg == "active runtime started" {
			found = true
		}
	}
	if !found {
		t.Fatalf("merged events missing runtime start marker: %d events", len(merged))
	}
}
