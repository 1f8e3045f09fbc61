// Package slo is the judgement layer over the telemetry the nodes
// already collect: declarative alert rules — simple thresholds,
// rates-of-change, and SRE-style multi-window burn rates over explicit
// objectives — evaluated against a node's telemetry rings on every
// sampler tick. Rule state machines move inactive → pending → firing →
// resolved; every transition is recorded as a structured event, the
// firing/pending totals are exported as metrics, and the current alert
// table is served over the wire for dosasctl alerts and folded into the
// node's health report.
//
// Burn-rate semantics follow the multi-window error-budget convention:
// for an objective O (the tolerable bad/total ratio), the burn over a
// window is (bad/total)/O — 1× means exactly spending the budget. A
// rule breaches only when both a short and a long window burn at ≥
// Factor×, so brief blips (short window recovers) and stale history
// (long window alone) cannot fire on their own.
package slo

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dosas/internal/eventlog"
	"dosas/internal/metrics"
	"dosas/internal/telemetry"
)

// Kind names a rule's evaluation semantics.
type Kind string

// Rule kinds.
const (
	// KindThreshold compares the windowed average of a series against
	// Threshold.
	KindThreshold Kind = "threshold"
	// KindRateOfChange compares the series' slope (units per second
	// across Window) against Threshold — drift detection.
	KindRateOfChange Kind = "rate_of_change"
	// KindBurnRate compares short- and long-window error-budget burn
	// against Factor; see the package comment for the math.
	KindBurnRate Kind = "burn_rate"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("500ms", "3s") and unmarshals from either a string or nanoseconds —
// the format rule files use.
type Duration time.Duration

// MarshalJSON renders the duration as its string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "3s"-style strings or raw nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("slo: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("slo: bad duration %s", b)
	}
	*d = Duration(n)
	return nil
}

// Rule is one declarative alert rule. Unused fields for a kind are
// ignored; Validate fills defaults.
type Rule struct {
	// Name identifies the rule in alerts, events, and metrics.
	Name string `json:"name"`
	// Series is the telemetry series the rule watches (the burn-rate
	// numerator — per-tick bad-event counts).
	Series string `json:"series"`
	// Kind selects the evaluation semantics.
	Kind Kind `json:"kind"`
	// Op is the comparison for threshold/rate_of_change rules: ">"
	// (default) or "<".
	Op string `json:"op,omitempty"`
	// Threshold is the comparison bound for threshold/rate_of_change.
	Threshold float64 `json:"threshold,omitempty"`
	// Window is the averaging window for threshold/rate_of_change
	// (default 2s).
	Window Duration `json:"window,omitempty"`
	// Denom, for burn_rate rules, names the total-events series (the
	// denominator, per-tick counts). Empty means the burn is computed
	// from the windowed average of Series alone.
	Denom string `json:"denom,omitempty"`
	// Objective is the burn-rate error budget: the tolerable bad/total
	// ratio (e.g. 0.02 = 2% of requests may bounce).
	Objective float64 `json:"objective,omitempty"`
	// ShortWindow and LongWindow are the two burn windows (defaults 3s
	// and 15s — sized to the telemetry ring, which retains one minute).
	ShortWindow Duration `json:"short_window,omitempty"`
	LongWindow  Duration `json:"long_window,omitempty"`
	// Factor is the burn multiple both windows must reach to breach
	// (default 2: spending the budget twice as fast as allowed).
	Factor float64 `json:"factor,omitempty"`
	// For is how long a breach must persist before pending becomes
	// firing (0 fires on the first evaluated breach).
	For Duration `json:"for,omitempty"`
	// Severity labels the alert: "info", "warn" (default) or "page".
	Severity string `json:"severity,omitempty"`
}

// Validate checks required fields and fills kind-appropriate defaults.
func (r *Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("slo: rule with no name")
	}
	if r.Series == "" {
		return fmt.Errorf("slo: rule %q: no series", r.Name)
	}
	switch r.Kind {
	case KindThreshold, KindRateOfChange:
		if r.Window <= 0 {
			r.Window = Duration(2 * time.Second)
		}
	case KindBurnRate:
		if r.Objective <= 0 {
			return fmt.Errorf("slo: rule %q: burn_rate needs a positive objective", r.Name)
		}
		if r.ShortWindow <= 0 {
			r.ShortWindow = Duration(3 * time.Second)
		}
		if r.LongWindow <= 0 {
			r.LongWindow = Duration(15 * time.Second)
		}
		if r.LongWindow < r.ShortWindow {
			return fmt.Errorf("slo: rule %q: long_window %v < short_window %v",
				r.Name, time.Duration(r.LongWindow), time.Duration(r.ShortWindow))
		}
		if r.Factor <= 0 {
			r.Factor = 2
		}
	default:
		return fmt.Errorf("slo: rule %q: unknown kind %q", r.Name, r.Kind)
	}
	switch r.Op {
	case "":
		r.Op = ">"
	case ">", "<":
	default:
		return fmt.Errorf("slo: rule %q: op must be \">\" or \"<\", got %q", r.Name, r.Op)
	}
	switch r.Severity {
	case "":
		r.Severity = "warn"
	case "info", "warn", "page":
	default:
		return fmt.Errorf("slo: rule %q: unknown severity %q", r.Name, r.Severity)
	}
	return nil
}

// LoadRules reads a JSON rule file: an array of Rule objects. Every
// rule is validated (and defaulted) before any is returned.
func LoadRules(path string) ([]Rule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("slo: rules file: %w", err)
	}
	return ParseRules(data)
}

// ParseRules decodes and validates a JSON rule array.
func ParseRules(data []byte) ([]Rule, error) {
	var rules []Rule
	if err := json.Unmarshal(data, &rules); err != nil {
		return nil, fmt.Errorf("slo: parse rules: %w", err)
	}
	for i := range rules {
		if err := rules[i].Validate(); err != nil {
			return nil, err
		}
	}
	return rules, nil
}

// DefaultRules is the built-in rule set every node evaluates when no
// -slo-rules file overrides it: queue saturation, memory pressure,
// estimator drift, and the bounce error-budget burn rate. Thresholds
// track the defaults in core (queue saturation 8, admission memory
// guard at high pressure).
func DefaultRules() []Rule {
	rules := []Rule{
		{
			Name: "queue-saturation", Series: "queue.depth", Kind: KindThreshold,
			Threshold: 6, Window: Duration(2 * time.Second),
			For: Duration(time.Second), Severity: "warn",
		},
		{
			Name: "memory-pressure", Series: "mem.pressure", Kind: KindThreshold,
			Threshold: 0.9, Window: Duration(2 * time.Second),
			For: Duration(time.Second), Severity: "warn",
		},
		{
			Name: "estimator-drift", Series: "est.error.pct", Kind: KindRateOfChange,
			Threshold: 5, Window: Duration(10 * time.Second),
			For: Duration(2 * time.Second), Severity: "info",
		},
		{
			Name: "bounce-budget-burn", Series: "bounce.delta", Denom: "arrivals.delta",
			Kind: KindBurnRate, Objective: 0.02, Factor: 2,
			ShortWindow: Duration(3 * time.Second), LongWindow: Duration(10 * time.Second),
			For: Duration(500 * time.Millisecond), Severity: "page",
		},
		{
			// One tenant owning ≥75% of per-tick queue wait over both burn
			// windows. The series is 0 on single-tenant nodes (a lone
			// tenant is not a neighbor) and absent on nodes without a
			// tenant table, so the rule abstains there. Factor 1 is
			// explicit: the objective IS the share bound, and the default
			// factor of 2 would demand an impossible 150% share.
			Name: "noisy-neighbor", Series: "tenant.wait.share", Kind: KindBurnRate,
			Objective: 0.75, Factor: 1,
			ShortWindow: Duration(3 * time.Second), LongWindow: Duration(10 * time.Second),
			For: Duration(500 * time.Millisecond), Severity: "warn",
		},
	}
	for i := range rules {
		if err := rules[i].Validate(); err != nil {
			panic(err) // built-ins are validated by tests
		}
	}
	return rules
}

// State is a rule's alert state.
type State string

// Alert states.
const (
	// StateInactive: the rule has never breached (or recovered before
	// its For dwell and was cancelled).
	StateInactive State = "inactive"
	// StatePending: breaching, waiting out the For dwell.
	StatePending State = "pending"
	// StateFiring: breached for at least For.
	StateFiring State = "firing"
	// StateResolved: was firing, no longer breaching.
	StateResolved State = "resolved"
)

// Alert is one rule's current status — the unit dosasctl alerts
// displays and the alerts introspection carries.
type Alert struct {
	Rule     string `json:"rule"`
	Series   string `json:"series"`
	Kind     Kind   `json:"kind"`
	State    State  `json:"state"`
	Severity string `json:"severity"`
	Node     string `json:"node,omitempty"`
	// Value is the last evaluated rule value: the windowed average
	// (threshold), slope per second (rate_of_change), or short-window
	// burn multiple (burn_rate).
	Value float64 `json:"value"`
	// Detail is a human-readable evaluation summary.
	Detail string `json:"detail,omitempty"`
	// SinceUnixNano is when the current state was entered.
	SinceUnixNano int64 `json:"since,omitempty"`
	// FiredUnixNano / ResolvedUnixNano are the most recent firing and
	// resolution instants (0 if never).
	FiredUnixNano    int64 `json:"fired,omitempty"`
	ResolvedUnixNano int64 `json:"resolved,omitempty"`
}

// Config parameterises an Engine.
type Config struct {
	// Rules to evaluate (each must already Validate).
	Rules []Rule
	// Sampler is the telemetry source the rules read.
	Sampler *telemetry.Sampler
	// Events receives transition events (optional).
	Events *eventlog.Log
	// Metrics receives slo.firing / slo.pending gauges and the
	// slo.transitions counter (optional).
	Metrics *metrics.Registry
	// Node labels emitted alerts and events.
	Node string
	// Annotate, when set, contributes extra key/value pairs (flat
	// alternating list) to every transition event of the named rule — the
	// hook through which the tenant plane names the dominant tenant on
	// noisy-neighbor transitions. Optional.
	Annotate func(rule string) []string
	// Now overrides the clock, for tests.
	Now func() time.Time
}

// Engine evaluates a rule set against one node's telemetry. Hook Eval
// onto the sampler with Sampler.OnTick. A nil *Engine is valid and
// holds no alerts.
type Engine struct {
	cfg Config
	now func() time.Time

	mu     sync.Mutex
	states []ruleState
	evals  uint64
}

type ruleState struct {
	rule        Rule
	state       State
	since       time.Time // entered current state
	breachSince time.Time // first tick of the current breach streak
	firedAt     time.Time
	resolvedAt  time.Time
	value       float64
	detail      string
}

// NewEngine validates the rules and returns an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	e := &Engine{cfg: cfg, now: cfg.Now}
	for _, r := range cfg.Rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		e.states = append(e.states, ruleState{rule: r, state: StateInactive})
	}
	sort.Slice(e.states, func(i, j int) bool { return e.states[i].rule.Name < e.states[j].rule.Name })
	return e, nil
}

// Eval evaluates every rule once against the sampler's current rings
// and advances the alert state machines. Designed to run on the
// sampler tick; safe on nil.
func (e *Engine) Eval() {
	if e == nil {
		return
	}
	now := e.now()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.evals++
	for i := range e.states {
		st := &e.states[i]
		value, detail, breach, ok := evalRule(e.cfg.Sampler, st.rule)
		if !ok {
			// The rule abstained (too few points in the window, e.g. a
			// telemetry stall). Missing data is neither a breach nor a
			// recovery: hold the current state so a firing alert does
			// not auto-resolve on a gap.
			continue
		}
		st.value, st.detail = value, detail
		switch {
		case breach && (st.state == StateInactive || st.state == StateResolved):
			st.state, st.since, st.breachSince = StatePending, now, now
			e.transition(st, "alert pending", eventlog.Warn)
		case !breach && st.state == StatePending:
			// Recovered inside the dwell: cancel silently back to
			// inactive — the alert never fired, so no resolved event.
			st.state, st.since = StateInactive, now
		case !breach && st.state == StateFiring:
			st.state, st.since, st.resolvedAt = StateResolved, now, now
			e.transition(st, "alert resolved", eventlog.Info)
		}
		if breach && st.state == StatePending &&
			now.Sub(st.breachSince) >= time.Duration(st.rule.For) {
			st.state, st.since, st.firedAt = StateFiring, now, now
			e.transition(st, "alert firing", eventlog.Error)
		}
	}
	if m := e.cfg.Metrics; m != nil {
		m.Gauge("slo.firing").Set(int64(e.countLocked(StateFiring)))
		m.Gauge("slo.pending").Set(int64(e.countLocked(StatePending)))
	}
}

// transition records one state change as an event and a metric. Called
// with e.mu held; the event log has its own lock and never calls back.
func (e *Engine) transition(st *ruleState, msg string, level eventlog.Level) {
	if m := e.cfg.Metrics; m != nil {
		m.Counter("slo.transitions").Inc()
	}
	ev := e.cfg.Events
	if ev == nil {
		return
	}
	kv := []string{
		"rule", st.rule.Name,
		"series", st.rule.Series,
		"state", string(st.state),
		"severity", st.rule.Severity,
		"value", FormatValue(st.value),
	}
	if st.detail != "" {
		kv = append(kv, "detail", st.detail)
	}
	if a := e.cfg.Annotate; a != nil {
		kv = append(kv, a(st.rule.Name)...)
	}
	switch level {
	case eventlog.Error:
		ev.Error("slo", msg, kv...)
	case eventlog.Warn:
		ev.Warn("slo", msg, kv...)
	default:
		ev.Info("slo", msg, kv...)
	}
}

func (e *Engine) countLocked(s State) int {
	n := 0
	for i := range e.states {
		if e.states[i].state == s {
			n++
		}
	}
	return n
}

// Alerts returns every rule's current status, sorted by rule name.
func (e *Engine) Alerts() []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, 0, len(e.states))
	for i := range e.states {
		st := &e.states[i]
		a := Alert{
			Rule: st.rule.Name, Series: st.rule.Series, Kind: st.rule.Kind,
			State: st.state, Severity: st.rule.Severity, Node: e.cfg.Node,
			Value: st.value, Detail: st.detail,
		}
		if !st.since.IsZero() {
			a.SinceUnixNano = st.since.UnixNano()
		}
		if !st.firedAt.IsZero() {
			a.FiredUnixNano = st.firedAt.UnixNano()
		}
		if !st.resolvedAt.IsZero() {
			a.ResolvedUnixNano = st.resolvedAt.UnixNano()
		}
		out = append(out, a)
	}
	return out
}

// Firing reports how many rules are currently firing.
func (e *Engine) Firing() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.countLocked(StateFiring)
}

// Evals reports how many times Eval has run.
func (e *Engine) Evals() uint64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.evals
}

// Checks renders the engine's status as health checks, so firing
// alerts fail the node's readiness report: one aggregate "alerts"
// check plus one check per firing rule. Info-severity rules are
// surfaced but never degrade readiness — they exist to annotate
// transients (the estimator-drift rule trips for one slope window
// after a cold boot's first request, which is worth seeing in health
// output but is not an operator page).
func (e *Engine) Checks() []telemetry.Check {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	firing := e.countLocked(StateFiring)
	info := 0
	for i := range e.states {
		st := &e.states[i]
		if st.state == StateFiring && st.rule.Severity == "info" {
			info++
		}
	}
	detail := fmt.Sprintf("%d firing of %d rules", firing, len(e.states))
	if info > 0 {
		detail = fmt.Sprintf("%s (%d info-only)", detail, info)
	}
	out := []telemetry.Check{{
		Name: "alerts", OK: firing == info, Detail: detail,
	}}
	for i := range e.states {
		st := &e.states[i]
		if st.state == StateFiring {
			out = append(out, telemetry.Check{
				Name: "alert:" + st.rule.Name, OK: st.rule.Severity == "info",
				Detail: st.detail,
			})
		}
	}
	return out
}

// evalRule computes one rule against the sampler. ok is false when the
// series has too few points in the window to judge (the rule abstains:
// no breach, previous value retained).
func evalRule(s *telemetry.Sampler, r Rule) (value float64, detail string, breach, ok bool) {
	if s == nil {
		return 0, "", false, false
	}
	switch r.Kind {
	case KindThreshold:
		avg, n := windowAvg(s, r.Series, time.Duration(r.Window))
		if n == 0 {
			return 0, "", false, false
		}
		breach = compare(avg, r.Op, r.Threshold)
		detail = fmt.Sprintf("avg(%s,%v)=%s %s %s", r.Series, time.Duration(r.Window),
			FormatValue(avg), r.Op, FormatValue(r.Threshold))
		return avg, detail, breach, true
	case KindRateOfChange:
		slope, n := windowSlope(s, r.Series, time.Duration(r.Window))
		if n < 2 {
			return 0, "", false, false
		}
		breach = compare(slope, r.Op, r.Threshold)
		detail = fmt.Sprintf("slope(%s,%v)=%s/s %s %s", r.Series, time.Duration(r.Window),
			FormatValue(slope), r.Op, FormatValue(r.Threshold))
		return slope, detail, breach, true
	case KindBurnRate:
		burnShort, okS := burn(s, r, time.Duration(r.ShortWindow))
		burnLong, okL := burn(s, r, time.Duration(r.LongWindow))
		if !okS || !okL {
			return 0, "", false, false
		}
		breach = burnShort >= r.Factor && burnLong >= r.Factor
		detail = fmt.Sprintf("burn short=%sx long=%sx objective=%s factor=%s",
			FormatValue(burnShort), FormatValue(burnLong),
			FormatValue(r.Objective), FormatValue(r.Factor))
		return burnShort, detail, breach, true
	}
	return 0, "", false, false
}

// burn computes the error-budget burn multiple over one window: the
// bad/total ratio (sums of the numerator and denominator series, or
// the numerator's windowed average when no denominator is named)
// divided by the objective.
func burn(s *telemetry.Sampler, r Rule, window time.Duration) (float64, bool) {
	var ratio float64
	if r.Denom == "" {
		avg, n := windowAvg(s, r.Series, window)
		if n == 0 {
			return 0, false
		}
		ratio = avg
	} else {
		num, n1 := windowSum(s, r.Series, window)
		den, n2 := windowSum(s, r.Denom, window)
		if n1 == 0 || n2 == 0 {
			return 0, false
		}
		if den <= 0 {
			return 0, true // no traffic: nothing is burning
		}
		ratio = num / den
	}
	return ratio / r.Objective, true
}

func windowAvg(s *telemetry.Sampler, name string, window time.Duration) (float64, int) {
	sum, n := windowSum(s, name, window)
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

func windowSum(s *telemetry.Sampler, name string, window time.Duration) (float64, int) {
	ser, ok := s.Get(name, window)
	if !ok {
		return 0, 0
	}
	var sum float64
	for _, p := range ser.Points {
		sum += p.Value
	}
	return sum, len(ser.Points)
}

func windowSlope(s *telemetry.Sampler, name string, window time.Duration) (float64, int) {
	ser, ok := s.Get(name, window)
	if !ok || len(ser.Points) < 2 {
		return 0, len(ser.Points)
	}
	first, last := ser.Points[0], ser.Points[len(ser.Points)-1]
	dt := time.Duration(last.UnixNano - first.UnixNano).Seconds()
	if dt <= 0 {
		return 0, len(ser.Points)
	}
	return (last.Value - first.Value) / dt, len(ser.Points)
}

func compare(v float64, op string, threshold float64) bool {
	if op == "<" {
		return v < threshold
	}
	return v > threshold
}

// FormatValue renders a float compactly and deterministically for
// events, details, and the alerts table.
func FormatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// FormatAlerts renders the table dosasctl alerts prints: one row per
// rule, sorted node-major then rule, states upper-cased so FIRING
// stands out.
func FormatAlerts(alerts []Alert) string {
	sorted := append([]Alert(nil), alerts...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Node != sorted[j].Node {
			return sorted[i].Node < sorted[j].Node
		}
		return sorted[i].Rule < sorted[j].Rule
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-20s %-9s %-5s %-10s %s\n", "NODE", "RULE", "STATE", "SEV", "VALUE", "DETAIL")
	for _, a := range sorted {
		fmt.Fprintf(&b, "%-8s %-20s %-9s %-5s %-10s %s\n",
			a.Node, a.Rule, strings.ToUpper(string(a.State)), a.Severity,
			FormatValue(a.Value), a.Detail)
	}
	return b.String()
}
