package dosas

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dosas/internal/slo"
)

// ReportOptions selects an incident report's window and contents.
type ReportOptions struct {
	// Alert focuses the report on one rule: the window spans from that
	// rule's earliest recorded transition to its latest resolution (or
	// now, while it still fires), padded by Pad on both ends. Errors if
	// the rule has no recorded transitions.
	Alert string
	// Since and Until bound the window explicitly when Alert is empty.
	// A zero Until means now; a zero Since means Until − 15 minutes.
	Since, Until time.Time
	// Pad widens an alert-derived window on both ends so the lead-up
	// and aftermath are visible (default 30 s).
	Pad time.Duration
	// Step is the archived-series reduction step (default 1 s).
	Step time.Duration
	// Series overrides the telemetry series to include. Empty derives
	// the set from the included alerts' rule series.
	Series []string
	// MaxEvents caps the event timeline, keeping the newest (default
	// 200); the count of clipped older events is reported.
	MaxEvents int
	// Now fixes the report's notion of the current time (zero means
	// time.Now()) — injectable so builds are reproducible.
	Now time.Time
}

// ReportSeries is one telemetry series' archived window across nodes.
type ReportSeries struct {
	Name  string       `json:"name"`
	Nodes []NodeSeries `json:"nodes"`
}

// IncidentReport is one stitched diagnostic bundle: the alert
// transitions, event-log timeline, and archived telemetry of an
// incident window, as assembled by Cluster.Report / FS.Report and
// printed by dosasctl report.
type IncidentReport struct {
	// Rule is the focus rule, when the report was built around one.
	Rule string `json:"rule,omitempty"`
	// FromUnixNano and UntilUnixNano bound the incident window.
	FromUnixNano  int64 `json:"from"`
	UntilUnixNano int64 `json:"until"`
	// Alerts holds the focus rule's per-node alerts first, then every
	// other non-inactive alert, node-major.
	Alerts []Alert `json:"alerts,omitempty"`
	// Events is the merged cross-node event timeline clipped to the
	// window, oldest first; TruncatedEvents counts older entries
	// dropped by the MaxEvents cap.
	Events          []Event `json:"events,omitempty"`
	TruncatedEvents int     `json:"truncated_events,omitempty"`
	// Series holds the archived telemetry windows, one entry per
	// series name, each with per-node points.
	Series []ReportSeries `json:"series,omitempty"`
}

// BuildIncidentReport stitches an alert table, a merged event timeline,
// and archived telemetry (fetched through query — Cluster.Query,
// FS.Query, or a test double) into one bundle. It is deterministic
// given its inputs and o.Now.
func BuildIncidentReport(o ReportOptions, alerts []Alert, events []Event, query func(RangeQuery) (QueryResult, error)) (IncidentReport, error) {
	now := o.Now
	if now.IsZero() {
		now = time.Now()
	}
	pad := o.Pad
	if pad <= 0 {
		pad = 30 * time.Second
	}

	var from, until int64
	var focus []Alert
	if o.Alert != "" {
		for _, a := range alerts {
			if a.Rule == o.Alert {
				focus = append(focus, a)
			}
		}
		if len(focus) == 0 {
			return IncidentReport{}, fmt.Errorf("dosas: no alert rule %q on any node", o.Alert)
		}
		for _, a := range focus {
			start := a.FiredUnixNano
			if start == 0 {
				start = a.SinceUnixNano
			}
			if start != 0 && (from == 0 || start < from) {
				from = start
			}
			end := a.ResolvedUnixNano
			if a.State == slo.StateFiring || a.State == slo.StatePending || end == 0 {
				end = now.UnixNano()
			}
			if end > until {
				until = end
			}
		}
		if from == 0 {
			return IncidentReport{}, fmt.Errorf("dosas: alert rule %q has no recorded transitions", o.Alert)
		}
		from -= int64(pad)
		until += int64(pad)
	} else {
		until = now.UnixNano()
		if !o.Until.IsZero() {
			until = o.Until.UnixNano()
		}
		from = until - int64(15*time.Minute)
		if !o.Since.IsZero() {
			from = o.Since.UnixNano()
		}
	}

	r := IncidentReport{Rule: o.Alert, FromUnixNano: from, UntilUnixNano: until}

	// Focus rows first (node order), then every other non-inactive
	// alert node-major — the table reads incident-first.
	sortAlerts := func(s []Alert) {
		sort.SliceStable(s, func(i, j int) bool {
			if s[i].Node != s[j].Node {
				return s[i].Node < s[j].Node
			}
			return s[i].Rule < s[j].Rule
		})
	}
	var rest []Alert
	for _, a := range alerts {
		if a.Rule != o.Alert && a.State != slo.StateInactive {
			rest = append(rest, a)
		}
	}
	sortAlerts(focus)
	sortAlerts(rest)
	r.Alerts = append(append([]Alert{}, focus...), rest...)

	maxEvents := o.MaxEvents
	if maxEvents <= 0 {
		maxEvents = 200
	}
	for _, ev := range events {
		if ev.UnixNano >= from && ev.UnixNano <= until {
			r.Events = append(r.Events, ev)
		}
	}
	if len(r.Events) > maxEvents {
		r.TruncatedEvents = len(r.Events) - maxEvents
		r.Events = append([]Event(nil), r.Events[r.TruncatedEvents:]...)
	}

	names := o.Series
	if len(names) == 0 {
		seen := make(map[string]bool)
		for _, a := range r.Alerts {
			if a.Series != "" && !seen[a.Series] {
				seen[a.Series] = true
				names = append(names, a.Series)
			}
		}
		sort.Strings(names)
	}
	step := o.Step
	if step <= 0 {
		step = time.Second
	}
	for _, name := range names {
		res, err := query(RangeQuery{
			Name: name, From: time.Unix(0, from), Until: time.Unix(0, until), Step: step,
		})
		if err != nil {
			return r, fmt.Errorf("dosas: querying %s: %w", name, err)
		}
		r.Series = append(r.Series, ReportSeries{Name: name, Nodes: res.Nodes})
	}
	return r, nil
}

// Report builds an incident report from this cluster's alert tables,
// event rings, and node archives, in-process.
func (c *Cluster) Report(o ReportOptions) (IncidentReport, error) { return c.peers().report(o) }

// Report builds an incident report by sweeping the connected cluster
// over the wire: alert tables, event tails, and archived telemetry.
// Unreachable nodes are skipped, so a report of a degraded cluster
// still assembles from the nodes that answer.
func (fs *FS) Report(o ReportOptions) (IncidentReport, error) { return fs.peers().report(o) }

func (ps peers) report(o ReportOptions) (IncidentReport, error) {
	alerts, err := ps.alerts()
	if err != nil {
		return IncidentReport{}, err
	}
	pages, err := ps.events(nil, EventDebug, 0)
	if err != nil {
		return IncidentReport{}, err
	}
	return BuildIncidentReport(o, alerts, mergePages(pages), ps.query)
}

// reportTime renders a report timestamp; UTC so reports are identical
// wherever they are generated.
func reportTime(nano int64) string {
	return time.Unix(0, nano).UTC().Format("2006-01-02 15:04:05.000")
}

// reportSparkline draws points as a fixed-width bar strip scaled to the
// window maximum.
func reportSparkline(points []SeriesPoint, width int) string {
	if len(points) == 0 {
		return ""
	}
	bars := []rune("▁▂▃▄▅▆▇█")
	var max float64
	for _, p := range points {
		if p.Value > max {
			max = p.Value
		}
	}
	if len(points) > width {
		points = points[len(points)-width:]
	}
	out := make([]rune, 0, len(points))
	for _, p := range points {
		idx := 0
		if max > 0 {
			idx = int(p.Value / max * float64(len(bars)-1))
		}
		out = append(out, bars[idx])
	}
	return string(out)
}

// FormatIncidentReport renders a report as the multi-section text
// dosasctl report prints. All times are UTC.
func FormatIncidentReport(r IncidentReport) string {
	var b strings.Builder
	b.WriteString("INCIDENT REPORT")
	if r.Rule != "" {
		fmt.Fprintf(&b, "  rule=%s", r.Rule)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "window  %s .. %s (%s)\n",
		reportTime(r.FromUnixNano), reportTime(r.UntilUnixNano),
		time.Duration(r.UntilUnixNano-r.FromUnixNano).Round(time.Millisecond))

	if len(r.Alerts) > 0 {
		b.WriteString("\nALERTS\n")
		b.WriteString(FormatAlerts(r.Alerts))
	}

	fmt.Fprintf(&b, "\nEVENTS (%d)\n", len(r.Events)+r.TruncatedEvents)
	if r.TruncatedEvents > 0 {
		fmt.Fprintf(&b, "… %d older events clipped\n", r.TruncatedEvents)
	}
	for _, ev := range r.Events {
		b.WriteString(time.Unix(0, ev.UnixNano).UTC().Format("15:04:05.000"))
		fmt.Fprintf(&b, " %-5s ", strings.ToUpper(ev.Level))
		if ev.Node != "" {
			b.WriteString(ev.Node)
			b.WriteByte('/')
		}
		b.WriteString(ev.Sub)
		b.WriteByte(' ')
		b.WriteString(ev.Msg)
		for _, f := range ev.Fields {
			fmt.Fprintf(&b, " %s=%s", f.K, f.V)
		}
		b.WriteByte('\n')
	}

	for _, s := range r.Series {
		fmt.Fprintf(&b, "\nTELEMETRY %s\n", s.Name)
		for _, ns := range s.Nodes {
			if len(ns.Points) == 0 {
				fmt.Fprintf(&b, "  %-8s (no archived data)\n", ns.Node)
				continue
			}
			min, max, sum := ns.Points[0].Value, ns.Points[0].Value, 0.0
			for _, p := range ns.Points {
				if p.Value < min {
					min = p.Value
				}
				if p.Value > max {
					max = p.Value
				}
				sum += p.Value
			}
			fmt.Fprintf(&b, "  %-8s n=%-4d min=%-8s mean=%-8s max=%-8s %s\n",
				ns.Node, len(ns.Points),
				slo.FormatValue(min), slo.FormatValue(sum/float64(len(ns.Points))), slo.FormatValue(max),
				reportSparkline(ns.Points, 32))
		}
	}
	return b.String()
}
