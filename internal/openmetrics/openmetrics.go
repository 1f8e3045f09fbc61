// Package openmetrics renders what a node's introspection kinds answer —
// its metric snapshot, telemetry rings, SLO alert states, event-ring and
// tenant-table counts — as the OpenMetrics/Prometheus text exposition
// format, served on /metrics from every daemon's pprofserve mux. Rendering is byte-deterministic for a given input —
// families and samples are emitted in sorted order — so the format is
// golden-tested and scrape diffs are meaningful.
//
// Naming: every family is prefixed dosas_ and internal dotted names map
// to underscores (active.arrivals → dosas_active_arrivals_total).
// Counters get the _total suffix and histograms export as summaries
// (quantile samples plus _sum and _count). Every sample carries node and
// role labels; the latest telemetry-ring samples are one dosas_telemetry
// family keyed by a series label.
package openmetrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"dosas/internal/metrics"
	"dosas/internal/pfs"
	"dosas/internal/slo"
)

// ContentType is the OpenMetrics media type served on /metrics.
const ContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// Source is one node's exposable state, as its introspection kinds
// answer it (pfs.IntrospectLocal or pfs.Introspect). Nil fields are
// skipped, so a node exposes whatever subset it has.
type Source struct {
	// Node and Role label every sample ("data-0"/"data", "meta"/"meta",
	// "client"/"client").
	Node string
	Role string
	// Stats is the node's counter/gauge/histogram snapshot.
	Stats *metrics.Snapshot
	// Series contributes each telemetry ring's latest sample and the
	// rings' cumulative overwrite count.
	Series *pfs.SeriesReply
	// Alerts contributes per-rule alert-state gauges and the firing
	// count; nil means the node runs no alert engine.
	Alerts []slo.Alert
	// Events contributes the event ring's overwrite count.
	Events *pfs.EventReply
	// Tenants contributes the dosas_tenant{tenant,resource} usage family
	// and the tenant-table eviction count. Label cardinality is bounded
	// by the table itself (LRU-evicted past its limit).
	Tenants *pfs.TenantReply
}

// family is one metric family: a TYPE declaration plus sorted samples.
type family struct {
	typ     string // "counter", "gauge", "summary"
	help    string
	samples []sample
}

type sample struct {
	// suffix is appended to the family name ("_total", "_sum", "").
	suffix string
	labels string // rendered "{k=\"v\",...}" form, sort key within a family
	value  string
}

// Render writes the exposition of every source, terminated by the
// required "# EOF" line.
func Render(w io.Writer, sources []Source) error {
	fams := make(map[string]*family)
	add := func(name, typ, help string, s sample) {
		f, ok := fams[name]
		if !ok {
			f = &family{typ: typ, help: help}
			fams[name] = f
		}
		f.samples = append(f.samples, s)
	}
	for _, src := range sources {
		collect(src, add)
	}
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.typ); err != nil {
			return err
		}
		sort.SliceStable(f.samples, func(i, j int) bool {
			if f.samples[i].labels != f.samples[j].labels {
				return f.samples[i].labels < f.samples[j].labels
			}
			return f.samples[i].suffix < f.samples[j].suffix
		})
		for _, s := range f.samples {
			if _, err := fmt.Fprintf(w, "%s%s%s %s\n", name, s.suffix, s.labels, s.value); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

func collect(src Source, add func(name, typ, help string, s sample)) {
	base := labels{{"node", src.Node}, {"role", src.Role}}
	if snap := src.Stats; snap != nil {
		for name, v := range snap.Counters {
			add(metricName(name), "counter", "", sample{
				suffix: "_total", labels: base.render(), value: strconv.FormatInt(v, 10)})
		}
		for name, v := range snap.Gauges {
			if name == "slo.firing" && src.Alerts != nil {
				continue // rendered from the alert table below, with the rule states
			}
			add(metricName(name), "gauge", "", sample{
				labels: base.render(), value: strconv.FormatInt(v, 10)})
		}
		for name, h := range snap.Histograms {
			fam := metricName(name)
			for _, q := range []struct {
				q string
				v float64
			}{{"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}} {
				add(fam, "summary", "", sample{
					labels: base.with("quantile", q.q).render(), value: formatFloat(q.v)})
			}
			add(fam, "summary", "", sample{suffix: "_count",
				labels: base.render(), value: strconv.FormatInt(h.Count, 10)})
			add(fam, "summary", "", sample{suffix: "_sum",
				labels: base.render(), value: formatFloat(h.Mean * float64(h.Count))})
		}
	}
	if src.Series != nil {
		for _, ser := range src.Series.Series {
			if len(ser.Points) == 0 {
				continue
			}
			add("dosas_telemetry", "gauge",
				"Latest sample of each per-node telemetry series.", sample{
					labels: base.with("series", ser.Name).render(),
					value:  formatFloat(ser.Last().Value)})
		}
		add("dosas_telemetry_dropped", "counter",
			"Telemetry ring samples overwritten before being fetched.", sample{
				suffix: "_total", labels: base.render(),
				value: strconv.FormatUint(src.Series.Dropped, 10)})
	}
	if src.Alerts != nil {
		firing := 0
		for _, a := range src.Alerts {
			if a.State == slo.StateFiring {
				firing++
			}
			add("dosas_slo_alert", "gauge",
				"Alert rule state: 0 inactive, 1 pending, 2 firing, 3 resolved.", sample{
					labels: base.with("rule", a.Rule).with("severity", a.Severity).render(),
					value:  strconv.Itoa(stateCode(a.State))})
		}
		add("dosas_slo_firing", "gauge", "Number of alert rules currently firing.", sample{
			labels: base.render(), value: strconv.Itoa(firing)})
	}
	if src.Events != nil {
		add("dosas_events_dropped", "counter",
			"Event-ring entries overwritten before being fetched.", sample{
				suffix: "_total", labels: base.render(),
				value: strconv.FormatUint(src.Events.Dropped, 10)})
	}
	if src.Tenants != nil {
		for _, u := range src.Tenants.Usage {
			tl := base.with("tenant", u.Tenant)
			for _, r := range []struct {
				resource string
				value    uint64
			}{
				{"bytes_read", u.BytesRead},
				{"bytes_written", u.BytesWritten},
				{"read_ops", u.ReadOps},
				{"write_ops", u.WriteOps},
				{"trunc_ops", u.TruncOps},
				{"active_ops", u.ActiveOps},
				{"transform_ops", u.TransformOps},
				{"kernel_ns", u.KernelNanos},
				{"bounces", u.Bounces},
				{"interrupts", u.Interrupts},
				{"queue_wait_ns", u.QueueWaitNanos},
			} {
				if r.value == 0 {
					continue // keep the exposition to resources the tenant touched
				}
				add("dosas_tenant", "gauge",
					"Per-tenant cumulative resource usage, by resource label.", sample{
						labels: tl.with("resource", r.resource).render(),
						value:  strconv.FormatUint(r.value, 10)})
			}
			for _, g := range []struct {
				resource string
				value    int64
			}{{"queued", u.Queued}, {"inflight", u.Inflight}} {
				if g.value == 0 {
					continue
				}
				add("dosas_tenant", "gauge",
					"Per-tenant cumulative resource usage, by resource label.", sample{
						labels: tl.with("resource", g.resource).render(),
						value:  strconv.FormatInt(g.value, 10)})
			}
		}
		add("dosas_tenant_evicted", "counter",
			"Tenants folded into the (evicted) aggregate when the table overflowed.", sample{
				suffix: "_total", labels: base.render(),
				value: strconv.FormatUint(src.Tenants.Evicted, 10)})
	}
}

func stateCode(s slo.State) int {
	switch s {
	case slo.StatePending:
		return 1
	case slo.StateFiring:
		return 2
	case slo.StateResolved:
		return 3
	}
	return 0
}

// labels is an ordered label list; with() copies so bases are reusable.
type labels []struct{ k, v string }

func (l labels) with(k, v string) labels {
	out := make(labels, len(l), len(l)+1)
	copy(out, l)
	return append(out, struct{ k, v string }{k, v})
}

func (l labels) render() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, kv := range l {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// metricName maps an internal dotted metric name to its exposition
// family name: dosas_ prefix, dots and dashes to underscores.
func metricName(name string) string {
	var b strings.Builder
	b.WriteString("dosas_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// formatFloat renders sample values deterministically; integral floats
// render without an exponent or trailing zeros.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the exposition of sources() with the OpenMetrics
// content type — the /metrics endpoint.
func Handler(sources func() []Source) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		Render(w, sources())
	})
}
