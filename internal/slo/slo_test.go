package slo

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dosas/internal/eventlog"
	"dosas/internal/metrics"
	"dosas/internal/telemetry"
)

// manualClock only moves when told to, so windows and dwell times are
// exact.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func newManualClock() *manualClock { return &manualClock{t: time.Unix(1000, 0)} }

func (c *manualClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// rig wires a sampler, event log, metrics registry, and engine to one
// manual clock.
type rig struct {
	clk     *manualClock
	sampler *telemetry.Sampler
	events  *eventlog.Log
	reg     *metrics.Registry
	engine  *Engine
}

func newRig(t *testing.T, rules []Rule) *rig {
	t.Helper()
	clk := newManualClock()
	s := telemetry.NewSampler(telemetry.Config{Capacity: 256, Now: clk.now})
	ev, err := eventlog.New(eventlog.Config{Capacity: 64, Node: "data-0", Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	e, err := NewEngine(Config{
		Rules: rules, Sampler: s, Events: ev, Metrics: reg,
		Node: "data-0", Now: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clk: clk, sampler: s, events: ev, reg: reg, engine: e}
}

// step advances the clock one tick, samples, and evaluates — one
// sampler tick with the engine hooked on.
func (r *rig) step(d time.Duration) {
	r.clk.advance(d)
	r.sampler.Tick()
	r.engine.Eval()
}

func stateOf(t *testing.T, e *Engine, rule string) Alert {
	t.Helper()
	for _, a := range e.Alerts() {
		if a.Rule == rule {
			return a
		}
	}
	t.Fatalf("rule %q not in Alerts()", rule)
	return Alert{}
}

func TestThresholdLifecycle(t *testing.T) {
	rules := []Rule{{
		Name: "queue-sat", Series: "queue.depth", Kind: KindThreshold,
		Threshold: 5, Window: Duration(2 * time.Second),
		For: Duration(300 * time.Millisecond), Severity: "page",
	}}
	r := newRig(t, rules)
	depth := 1.0
	r.sampler.Register("queue.depth", func() float64 { return depth })

	for i := 0; i < 5; i++ {
		r.step(100 * time.Millisecond)
	}
	if a := stateOf(t, r.engine, "queue-sat"); a.State != StateInactive {
		t.Fatalf("steady state = %v, want inactive", a.State)
	}

	depth = 50
	r.step(100 * time.Millisecond)
	if a := stateOf(t, r.engine, "queue-sat"); a.State != StatePending {
		t.Fatalf("after breach = %v, want pending", a.State)
	}
	r.step(100 * time.Millisecond)
	r.step(100 * time.Millisecond)
	r.step(100 * time.Millisecond) // 300ms dwell reached
	a := stateOf(t, r.engine, "queue-sat")
	if a.State != StateFiring {
		t.Fatalf("after dwell = %v, want firing", a.State)
	}
	if a.FiredUnixNano == 0 || a.Value <= 5 {
		t.Fatalf("firing alert = %+v", a)
	}
	if r.engine.Firing() != 1 {
		t.Fatalf("Firing() = %d, want 1", r.engine.Firing())
	}
	if got := r.reg.Gauge("slo.firing").Value(); got != 1 {
		t.Fatalf("slo.firing gauge = %d, want 1", got)
	}
	checks := r.engine.Checks()
	if len(checks) != 2 || checks[0].OK || checks[1].Name != "alert:queue-sat" {
		t.Fatalf("Checks = %+v", checks)
	}

	// Recover: drop the depth and age the breach out of the window.
	depth = 0
	for i := 0; i < 25; i++ {
		r.step(100 * time.Millisecond)
	}
	a = stateOf(t, r.engine, "queue-sat")
	if a.State != StateResolved || a.ResolvedUnixNano == 0 {
		t.Fatalf("after recovery = %+v, want resolved", a)
	}
	if r.engine.Firing() != 0 {
		t.Fatal("still firing after recovery")
	}

	// The transitions were recorded as events: pending, firing, resolved.
	evs := r.events.Snapshot(0, eventlog.Debug, 0)
	var msgs []string
	for _, ev := range evs {
		if ev.Sub == "slo" {
			msgs = append(msgs, ev.Level+":"+ev.Msg)
		}
	}
	want := []string{"warn:alert pending", "error:alert firing", "info:alert resolved"}
	if len(msgs) != len(want) {
		t.Fatalf("events = %v, want %v", msgs, want)
	}
	for i := range want {
		if msgs[i] != want[i] {
			t.Fatalf("events = %v, want %v", msgs, want)
		}
	}
	if got := r.reg.Counter("slo.transitions").Value(); got != 3 {
		t.Fatalf("slo.transitions = %d, want 3", got)
	}
}

func TestPendingCancelsWithoutFiring(t *testing.T) {
	rules := []Rule{{
		Name: "queue-sat", Series: "queue.depth", Kind: KindThreshold,
		Threshold: 5, Window: Duration(300 * time.Millisecond),
		For: Duration(time.Second),
	}}
	r := newRig(t, rules)
	depth := 10.0
	r.sampler.Register("queue.depth", func() float64 { return depth })
	r.step(100 * time.Millisecond)
	if a := stateOf(t, r.engine, "queue-sat"); a.State != StatePending {
		t.Fatalf("state = %v, want pending", a.State)
	}
	depth = 0
	for i := 0; i < 5; i++ {
		r.step(100 * time.Millisecond)
	}
	if a := stateOf(t, r.engine, "queue-sat"); a.State != StateInactive {
		t.Fatalf("state = %v, want inactive (cancelled)", a.State)
	}
	// Only the pending event — a cancelled dwell never fires or resolves.
	evs := r.events.Snapshot(0, eventlog.Debug, 0)
	if len(evs) != 1 || evs[0].Msg != "alert pending" {
		t.Fatalf("events = %+v", evs)
	}
}

func TestBurnRateLifecycle(t *testing.T) {
	rules := []Rule{{
		Name: "bounce-burn", Series: "bounce.delta", Denom: "arrivals.delta",
		Kind: KindBurnRate, Objective: 0.02, Factor: 2,
		ShortWindow: Duration(time.Second), LongWindow: Duration(3 * time.Second),
		For: Duration(200 * time.Millisecond), Severity: "page",
	}}
	r := newRig(t, rules)
	var bounce, arrivals float64
	r.sampler.Register("bounce.delta", func() float64 { return bounce })
	r.sampler.Register("arrivals.delta", func() float64 { return arrivals })

	// Healthy traffic: 100 arrivals/tick, 1 bounce/tick = 1% < 2%.
	arrivals, bounce = 100, 1
	for i := 0; i < 40; i++ {
		r.step(100 * time.Millisecond)
	}
	if a := stateOf(t, r.engine, "bounce-burn"); a.State != StateInactive {
		t.Fatalf("healthy burn state = %v (%s), want inactive", a.State, a.Detail)
	}

	// Storm: 30% bounce rate = 15x the objective. The long window (3s)
	// still averages in the healthy history, so the breach arrives only
	// once both windows burn past 2x — then fires after the dwell.
	bounce = 30
	sawPending := false
	for i := 0; i < 60; i++ {
		r.step(100 * time.Millisecond)
		if stateOf(t, r.engine, "bounce-burn").State == StatePending {
			sawPending = true
		}
		if stateOf(t, r.engine, "bounce-burn").State == StateFiring {
			break
		}
	}
	a := stateOf(t, r.engine, "bounce-burn")
	if !sawPending || a.State != StateFiring {
		t.Fatalf("storm: pending seen=%v state=%v (%s)", sawPending, a.State, a.Detail)
	}
	if a.Value < 2 {
		t.Fatalf("firing burn value = %v, want >= factor 2", a.Value)
	}

	// Storm ends; the short window recovers first and the breach clears.
	bounce = 0
	for i := 0; i < 40; i++ {
		r.step(100 * time.Millisecond)
	}
	if a := stateOf(t, r.engine, "bounce-burn"); a.State != StateResolved {
		t.Fatalf("after storm = %v (%s), want resolved", a.State, a.Detail)
	}
}

func TestBurnRateNoTrafficDoesNotFire(t *testing.T) {
	rules := []Rule{{
		Name: "bounce-burn", Series: "bounce.delta", Denom: "arrivals.delta",
		Kind: KindBurnRate, Objective: 0.02,
		ShortWindow: Duration(time.Second), LongWindow: Duration(2 * time.Second),
	}}
	r := newRig(t, rules)
	r.sampler.Register("bounce.delta", func() float64 { return 0 })
	r.sampler.Register("arrivals.delta", func() float64 { return 0 })
	for i := 0; i < 30; i++ {
		r.step(100 * time.Millisecond)
	}
	if a := stateOf(t, r.engine, "bounce-burn"); a.State != StateInactive {
		t.Fatalf("idle cluster burn = %v, want inactive", a.State)
	}
}

func TestRateOfChange(t *testing.T) {
	rules := []Rule{{
		Name: "est-drift", Series: "est.error.pct", Kind: KindRateOfChange,
		Threshold: 5, Window: Duration(time.Second),
	}}
	r := newRig(t, rules)
	errPct := 10.0
	r.sampler.Register("est.error.pct", func() float64 { return errPct })
	for i := 0; i < 15; i++ {
		r.step(100 * time.Millisecond)
	}
	if a := stateOf(t, r.engine, "est-drift"); a.State != StateInactive {
		t.Fatalf("flat series = %v, want inactive", a.State)
	}
	// Ramp at 10 units/second (1 per 100ms tick) > threshold 5/s.
	for i := 0; i < 15; i++ {
		errPct++
		r.step(100 * time.Millisecond)
	}
	a := stateOf(t, r.engine, "est-drift")
	if a.State != StateFiring {
		t.Fatalf("ramp = %v (%s), want firing (For=0 fires on first breach)", a.State, a.Detail)
	}
}

func TestMissingSeriesAbstains(t *testing.T) {
	rules := []Rule{{
		Name: "ghost", Series: "no.such.series", Kind: KindThreshold, Threshold: 0,
	}}
	r := newRig(t, rules)
	for i := 0; i < 5; i++ {
		r.step(100 * time.Millisecond)
	}
	if a := stateOf(t, r.engine, "ghost"); a.State != StateInactive {
		t.Fatalf("missing series = %v, want inactive", a.State)
	}
}

func TestAbstainHoldsFiringState(t *testing.T) {
	rules := []Rule{{
		Name: "queue-sat", Series: "queue.depth", Kind: KindThreshold,
		Threshold: 5, Window: Duration(time.Second), Severity: "page",
	}}
	r := newRig(t, rules)
	depth := 50.0
	r.sampler.Register("queue.depth", func() float64 { return depth })
	for i := 0; i < 5; i++ {
		r.step(100 * time.Millisecond)
	}
	if a := stateOf(t, r.engine, "queue-sat"); a.State != StateFiring {
		t.Fatalf("breach = %v, want firing (For=0 fires on first breach)", a.State)
	}

	// Telemetry stalls: the clock advances past the window with no new
	// samples, so every evaluation abstains. A firing page alert must
	// hold its state, not auto-resolve on missing data.
	for i := 0; i < 30; i++ {
		r.clk.advance(100 * time.Millisecond)
		r.engine.Eval()
	}
	if a := stateOf(t, r.engine, "queue-sat"); a.State != StateFiring {
		t.Fatalf("after telemetry stall = %v, want still firing", a.State)
	}

	// Sampling resumes with healthy values: only now does it resolve.
	depth = 0
	for i := 0; i < 15; i++ {
		r.step(100 * time.Millisecond)
	}
	if a := stateOf(t, r.engine, "queue-sat"); a.State != StateResolved {
		t.Fatalf("after recovery = %v, want resolved", a.State)
	}
}

func TestValidateAndDefaults(t *testing.T) {
	r := Rule{Name: "x", Series: "s", Kind: KindThreshold}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.Op != ">" || r.Severity != "warn" || time.Duration(r.Window) != 2*time.Second {
		t.Fatalf("defaults not applied: %+v", r)
	}
	bad := []Rule{
		{Series: "s", Kind: KindThreshold},                             // no name
		{Name: "x", Kind: KindThreshold},                               // no series
		{Name: "x", Series: "s", Kind: "bogus"},                        // bad kind
		{Name: "x", Series: "s", Kind: KindThreshold, Op: ">="},        // bad op
		{Name: "x", Series: "s", Kind: KindBurnRate},                   // no objective
		{Name: "x", Series: "s", Kind: KindThreshold, Severity: "moo"}, // bad severity
		{Name: "x", Series: "s", Kind: KindBurnRate, Objective: 0.1, // long < short
			ShortWindow: Duration(5 * time.Second), LongWindow: Duration(time.Second)},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad rule %d validated: %+v", i, r)
		}
	}
}

func TestLoadRules(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rules.json")
	body := `[
	  {"name": "q", "series": "queue.depth", "kind": "threshold", "threshold": 6, "window": "2s", "for": "1s"},
	  {"name": "b", "series": "bounce.delta", "denom": "arrivals.delta", "kind": "burn_rate",
	   "objective": 0.02, "short_window": "3s", "long_window": "10s", "factor": 2, "severity": "page"}
	]`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	rules, err := LoadRules(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || time.Duration(rules[0].Window) != 2*time.Second ||
		time.Duration(rules[0].For) != time.Second || rules[1].Severity != "page" {
		t.Fatalf("rules = %+v", rules)
	}
	if _, err := LoadRules(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should fail")
	}
	if _, err := ParseRules([]byte(`[{"name":"x"}]`)); err == nil {
		t.Error("invalid rule should fail")
	}
	if _, err := ParseRules([]byte(`{`)); err == nil {
		t.Error("bad JSON should fail")
	}
	// Duration round-trips through JSON as a string.
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"1500ms"`)); err != nil || time.Duration(d) != 1500*time.Millisecond {
		t.Fatalf("duration parse = %v, %v", d, err)
	}
	b, _ := Duration(2 * time.Second).MarshalJSON()
	if string(b) != `"2s"` {
		t.Fatalf("duration marshal = %s", b)
	}
}

func TestDefaultRulesValidate(t *testing.T) {
	rules := DefaultRules()
	if len(rules) == 0 {
		t.Fatal("no default rules")
	}
	hasBurn := false
	for _, r := range rules {
		if r.Kind == KindBurnRate {
			hasBurn = true
		}
	}
	if !hasBurn {
		t.Fatal("default rules must include a burn-rate rule")
	}
}

func TestAlertsCodec(t *testing.T) {
	in := []Alert{{
		Rule: "q", Series: "queue.depth", Kind: KindThreshold, State: StateFiring,
		Severity: "page", Node: "data-0", Value: 12.5, Detail: "avg over",
		SinceUnixNano: 5, FiredUnixNano: 5,
	}}
	enc, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []Alert
	if err := json.Unmarshal(enc, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != in[0] {
		t.Fatalf("round trip = %+v", out)
	}
	if !strings.Contains(string(enc), `"state":"firing"`) {
		t.Errorf("state not encoded by name: %s", enc)
	}
}

func TestFormatAlertsTable(t *testing.T) {
	alerts := []Alert{
		{Node: "data-1", Rule: "b", State: StateInactive, Severity: "warn", Value: 0},
		{Node: "data-0", Rule: "a", State: StateFiring, Severity: "page", Value: 3.25, Detail: "x"},
	}
	got := FormatAlerts(alerts)
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "NODE") {
		t.Fatalf("table = %q", got)
	}
	// Sorted node-major; firing rendered upper-case.
	if !strings.Contains(lines[1], "data-0") || !strings.Contains(lines[1], "FIRING") {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if !strings.Contains(lines[2], "data-1") || !strings.Contains(lines[2], "INACTIVE") {
		t.Fatalf("row 2 = %q", lines[2])
	}
}

func TestNilEngine(t *testing.T) {
	var e *Engine
	e.Eval()
	if e.Alerts() != nil || e.Firing() != 0 || e.Checks() != nil || e.Evals() != 0 {
		t.Fatal("nil engine must be inert")
	}
}

func TestEngineOnSamplerTick(t *testing.T) {
	r := newRig(t, []Rule{{
		Name: "q", Series: "queue.depth", Kind: KindThreshold, Threshold: 5,
		Window: Duration(time.Second),
	}})
	r.sampler.Register("queue.depth", func() float64 { return 10 })
	r.sampler.OnTick(r.engine.Eval)
	r.clk.advance(100 * time.Millisecond)
	r.sampler.Tick()
	if r.engine.Evals() != 1 {
		t.Fatalf("Evals = %d, want 1 (hooked on sampler tick)", r.engine.Evals())
	}
	if a := stateOf(t, r.engine, "q"); a.State != StateFiring {
		t.Fatalf("state = %v, want firing", a.State)
	}
}

// TestInfoSeverityDoesNotDegradeHealth checks a firing info-severity
// rule is surfaced in Checks without failing readiness: boot-time
// transients (the estimator warm-up slope) annotate health output,
// they don't flip a node to DEGRADED.
func TestInfoSeverityDoesNotDegradeHealth(t *testing.T) {
	rules := []Rule{{
		Name: "drift", Series: "est.error.pct", Kind: KindThreshold,
		Threshold: 5, Window: Duration(2 * time.Second),
		For: Duration(100 * time.Millisecond), Severity: "info",
	}}
	r := newRig(t, rules)
	r.sampler.Register("est.error.pct", func() float64 { return 50 })
	for i := 0; i < 5; i++ {
		r.step(100 * time.Millisecond)
	}
	if a := stateOf(t, r.engine, "drift"); a.State != StateFiring {
		t.Fatalf("state = %v, want firing", a.State)
	}
	checks := r.engine.Checks()
	if len(checks) != 2 {
		t.Fatalf("Checks = %+v", checks)
	}
	if !checks[0].OK || !strings.Contains(checks[0].Detail, "1 info-only") {
		t.Fatalf("aggregate check = %+v, want OK with info-only note", checks[0])
	}
	if checks[1].Name != "alert:drift" || !checks[1].OK {
		t.Fatalf("per-rule check = %+v, want informational OK", checks[1])
	}
}

var update = flag.Bool("update", false, "rewrite golden files")

// TestFormatAlertsGolden pins the table dosasctl alerts prints, byte for
// byte. Regenerate with `go test ./internal/slo -run Golden -update`
// after an intentional format change.
func TestFormatAlertsGolden(t *testing.T) {
	alerts := []Alert{
		{Node: "meta", Rule: "queue-saturation", Series: "queue.depth", Kind: KindThreshold,
			State: StateInactive, Severity: "warn"},
		{Node: "data-0", Rule: "bounce-budget-burn", Series: "bounce.delta", Kind: KindBurnRate,
			State: StateFiring, Severity: "page", Value: 37.5,
			Detail: "burn short=37.5x long=12x objective=0.02 factor=2"},
		{Node: "data-0", Rule: "estimator-drift", Series: "est.error.pct", Kind: KindRateOfChange,
			State: StatePending, Severity: "info", Value: 6.25,
			Detail: "slope(est.error.pct,10s)=6.25/s > 5"},
		{Node: "data-1", Rule: "bounce-budget-burn", Series: "bounce.delta", Kind: KindBurnRate,
			State: StateResolved, Severity: "page", Value: 0.5,
			Detail: "burn short=0.5x long=1.2x objective=0.02 factor=2"},
	}
	got := FormatAlerts(alerts)
	golden := filepath.Join("testdata", "alerts.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("alert table drifted from golden (run with -update if intended):\n got:\n%s\nwant:\n%s", got, want)
	}
	// Determinism: formatting the same input twice is byte-identical.
	if again := FormatAlerts(alerts); again != got {
		t.Fatal("FormatAlerts is not deterministic")
	}
}
