package dosas

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"dosas/internal/eventlog"
	"dosas/internal/metrics"
	"dosas/internal/pfs"
	"dosas/internal/slo"
	"dosas/internal/telemetry"
	"dosas/internal/trace"
)

// TraceEvent is one recorded lifecycle event: a span of a distributed
// trace, carrying the TraceID minted by the issuing client, the recording
// node's identity, the phase it measures (queue-wait, kernel-execute,
// network-transfer, bounce-decision), its measured duration, and — for
// kernel phases — the Contention Estimator's predicted duration.
type TraceEvent = trace.Event

// StatsSnapshot is a consistent, JSON-encodable copy of one node's
// metric registry, as served by the stats introspection.
type StatsSnapshot = metrics.Snapshot

// TraceEvents returns storage node i's retained lifecycle events in
// chronological order.
func (c *Cluster) TraceEvents(node int) ([]TraceEvent, error) {
	if node < 0 || node >= len(c.runtimes) {
		return nil, fmt.Errorf("dosas: no storage node %d", node)
	}
	return c.runtimes[node].Trace().Snapshot(), nil
}

// Stats returns every node's metric snapshot, keyed by node name
// ("meta", "data-0", …) — the cluster-wide aggregate view of what each
// server has counted.
func (c *Cluster) Stats() map[string]StatsSnapshot {
	out := make(map[string]StatsSnapshot, len(c.runtimes)+1)
	if c.meta != nil {
		out["meta"] = c.meta.Metrics().Snapshot()
	}
	for i, rt := range c.runtimes {
		if i < len(c.dataServers) {
			c.dataServers[i].SyncWireStats()
		}
		out[fmt.Sprintf("data-%d", i)] = rt.Metrics().Snapshot()
	}
	return out
}

// TraceTimeline stitches the storage-side events of one distributed
// trace across every node into a single chronological timeline. Client
// recorders are not visible to the cluster; merge FS.TraceEvents output
// with StitchTimeline for the complete picture.
func (c *Cluster) TraceTimeline(traceID uint64) []TraceEvent {
	sets := make([][]TraceEvent, 0, len(c.runtimes))
	for _, rt := range c.runtimes {
		sets = append(sets, rt.Trace().HistoryTrace(traceID))
	}
	return StitchTimeline(sets...)
}

// TraceEvents returns this client's retained lifecycle events (issues,
// responses, transfers, local kernel executions), in chronological order.
func (fs *FS) TraceEvents() []TraceEvent {
	return fs.asc.Trace().Snapshot()
}

// FilterTrace keeps only the events of one distributed trace.
func FilterTrace(evs []TraceEvent, traceID uint64) []TraceEvent {
	var out []TraceEvent
	for _, e := range evs {
		if e.TraceID == traceID {
			out = append(out, e)
		}
	}
	return out
}

// FilterRequest keeps only the events of one wire-level request id.
func FilterRequest(evs []TraceEvent, reqID uint64) []TraceEvent {
	var out []TraceEvent
	for _, e := range evs {
		if e.ReqID == reqID {
			out = append(out, e)
		}
	}
	return out
}

// StitchTimeline merges per-node event sets into one timeline ordered by
// wall-clock time (ties broken by node, then sequence number). All nodes
// of an in-process or single-host cluster share a clock, so the order is
// faithful; across real hosts it is as good as their clock sync.
func StitchTimeline(sets ...[]TraceEvent) []TraceEvent {
	var out []TraceEvent
	for _, s := range sets {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Time.Equal(out[j].Time) {
			return out[i].Time.Before(out[j].Time)
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// FormatTimeline renders a stitched timeline one event per line, with
// the recording node called out so cross-node flow reads top to bottom.
func FormatTimeline(evs []TraceEvent) string {
	var sb strings.Builder
	for _, e := range evs {
		node := e.Node
		if node == "" {
			node = "?"
		}
		fmt.Fprintf(&sb, "%s %-8s%s\n", e.Time.Format("15:04:05.000"), node, trace.FormatEvent(e))
	}
	return sb.String()
}

// DecisionMetrics aggregates the scheduling decisions a cluster's
// storage nodes made — the per-scheme numbers the paper's evaluation
// turns on: how often work bounced back to compute nodes, how often
// running kernels were interrupted, and how accurate the Contention
// Estimator's kernel-cost forecasts were.
type DecisionMetrics struct {
	Arrivals    int64 `json:"arrivals"`
	Completed   int64 `json:"completed"`
	Bounced     int64 `json:"bounced"`
	Interrupted int64 `json:"interrupted"`
	Migrated    int64 `json:"migrated"`
	// BounceRate is Bounced/Arrivals (0 when no arrivals).
	BounceRate float64 `json:"bounce_rate"`
	// InterruptRate is Interrupted/Arrivals (0 when no arrivals).
	InterruptRate float64 `json:"interrupt_rate"`
	// EstimatorSamples counts kernel completions with a forecast.
	EstimatorSamples int64 `json:"estimator_samples"`
	// EstimatorErrPct is the mean |actual−predicted|/predicted error of
	// the estimator's kernel-cost forecasts, in percent, weighted across
	// nodes by sample count.
	EstimatorErrPct float64 `json:"estimator_err_pct"`
	// EstimatorErrPctP99 is the worst node's 99th-percentile error.
	EstimatorErrPctP99 float64 `json:"estimator_err_pct_p99"`
}

// DecisionMetrics aggregates scheduling-decision counters across all
// storage nodes.
func (c *Cluster) DecisionMetrics() DecisionMetrics {
	snaps := make([]StatsSnapshot, 0, len(c.runtimes))
	for _, rt := range c.runtimes {
		snaps = append(snaps, rt.Metrics().Snapshot())
	}
	return AggregateDecisions(snaps)
}

// HealthCheck is one named readiness check inside a node's health
// report (queue saturation, memory pressure, journal, …).
type HealthCheck = telemetry.Check

// HealthReport is one node's liveness and per-resource readiness, as
// served by the health introspection. Ready is the conjunction of its
// checks.
type HealthReport = telemetry.HealthReport

// SeriesPoint is one sampled (time, value) pair of a telemetry series.
type SeriesPoint = telemetry.Point

// Series is one named telemetry time series — a window of a node's
// ring-buffered samples (queue depth, bounce rate, throughput, …).
type Series = telemetry.Series

// SlowBundle is one slow-request diagnostic capture: the stitched
// cross-node timeline, disposition, and telemetry window of a ReadEx
// that tripped the client's slow detector.
type SlowBundle = telemetry.Bundle

// FormatSlowBundle renders a bundle as the multi-line report dosasctl
// slow prints.
func FormatSlowBundle(b SlowBundle) string { return telemetry.FormatBundle(b) }

// ReadSlowBundles loads the bundles a client persisted under dir (see
// ClientOptions.SlowDir), oldest first — how dosasctl slow inspects
// another process's flight journal.
func ReadSlowBundles(dir string) ([]SlowBundle, error) { return telemetry.ReadBundles(dir) }

// unreachableReport is the synthetic not-ready report a health sweep
// records for a node that could not be asked.
func unreachableReport(node, role string, err error) HealthReport {
	return HealthReport{
		Node: node, Role: role, Ready: false,
		Checks: []HealthCheck{{Name: "reachable", OK: false, Detail: err.Error()}},
	}
}

// Health reports every node's liveness and per-resource readiness —
// metadata server first, then storage nodes in layout order. It runs
// in-process through the same handlers that serve the health
// introspection on the wire, so the answer matches what dosasctl health
// sees.
func (c *Cluster) Health() []HealthReport {
	reports := make([]HealthReport, 0, len(c.dataServers)+1)
	if c.meta != nil {
		reports = append(reports, handlerHealth(c.meta, "meta", "meta"))
	}
	for i, ds := range c.dataServers {
		reports = append(reports, handlerHealth(ds, fmt.Sprintf("data-%d", i), "data"))
	}
	return reports
}

// handlerHealth asks one in-process server for its health report.
func handlerHealth(h pfs.Handler, node, role string) HealthReport {
	var rep HealthReport
	if _, err := pfs.IntrospectLocal(h, pfs.KindHealth, nil, &rep); err != nil {
		return unreachableReport(node, role, err)
	}
	return rep
}

// Series returns the trailing window of every node's telemetry history,
// keyed by node name ("meta", "data-0", …). Nodes without a sampler
// (Options.TelemetryTick < 0) are omitted. window ≤ 0 means the full
// retained history.
func (c *Cluster) Series(window time.Duration) map[string][]Series {
	out := make(map[string][]Series, len(c.runtimes)+1)
	if c.metaTele != nil {
		out["meta"] = c.metaTele.Snapshot(window)
	}
	for i, rt := range c.runtimes {
		if s := rt.Telemetry(); s != nil {
			out[fmt.Sprintf("data-%d", i)] = s.Snapshot(window)
		}
	}
	return out
}

// nodeAddrs enumerates the cluster's nodes as (name, address) pairs in
// sweep order: metadata server first, then storage nodes.
func (fs *FS) nodeAddrs() []struct{ name, role, addr string } {
	out := []struct{ name, role, addr string }{{"meta", "meta", fs.pc.MetaAddr()}}
	for i := 0; i < fs.pc.NumDataServers(); i++ {
		addr, err := fs.pc.DataAddr(uint32(i))
		if err != nil {
			continue
		}
		out = append(out, struct{ name, role, addr string }{fmt.Sprintf("data-%d", i), "data", addr})
	}
	return out
}

// sweep asks every node of the connected cluster — only the storage
// nodes when dataOnly — for one introspection kind, in sweep order, and
// hands keep each reply with the node's layout name and the name it
// answered with (the layout name when it gave none). params gives a
// node's params by layout name; nil asks with none. A node that cannot
// be asked, or does not serve the kind, is skipped (it surfaces in
// Health); a reply that does not decode ends the sweep with its error.
func sweep[R any](fs *FS, kind string, dataOnly bool, params func(name string) any, keep func(name, node string, reply R)) error {
	for _, n := range fs.nodeAddrs() {
		if dataOnly && n.role != "data" {
			continue
		}
		var p any
		if params != nil {
			p = params(n.name)
		}
		var reply R
		node, err := pfs.Introspect(fs.pc.Pool(), n.addr, kind, p, &reply)
		if errors.Is(err, pfs.ErrInvalid) {
			return fmt.Errorf("dosas: %s: %w", n.name, err)
		}
		if err != nil {
			continue
		}
		if node == "" {
			node = n.name
		}
		keep(n.name, node, reply)
	}
	return nil
}

// Health sweeps every node of the connected cluster over the wire and
// reports liveness plus per-resource readiness. Unreachable nodes come
// back as not-ready reports with a failing "reachable" check rather
// than an error — a health sweep of a degraded cluster must not itself
// fail.
func (fs *FS) Health() []HealthReport {
	var out []HealthReport
	for _, n := range fs.nodeAddrs() {
		var rep HealthReport
		if _, err := pfs.Introspect(fs.pc.Pool(), n.addr, pfs.KindHealth, nil, &rep); err != nil {
			rep = unreachableReport(n.name, n.role, err)
		}
		out = append(out, rep)
	}
	return out
}

// Series fetches the trailing window of every node's telemetry history
// over the wire, keyed by node name. names, when given, restrict the
// fetch to those series. Unreachable nodes are skipped (they surface in
// Health); decode failures are reported.
func (fs *FS) Series(window time.Duration, names ...string) (map[string][]Series, error) {
	out := make(map[string][]Series)
	params := pfs.SeriesParams{WindowNano: int64(window), Names: names}
	err := sweep(fs, pfs.KindSeries, false, func(string) any { return params },
		func(_, node string, r pfs.SeriesReply) { out[node] = r.Series })
	return out, err
}

// ClientSeries returns the trailing window of this client's own
// telemetry history (pending requests, shipped-bytes rate, bounce
// rate), or nil when client telemetry is disabled.
func (fs *FS) ClientSeries(window time.Duration) []Series {
	if s := fs.asc.Telemetry(); s != nil {
		return s.Snapshot(window)
	}
	return nil
}

// SlowBundles returns the flight recorder's journaled slow-request
// bundles, oldest first. Empty unless the client was connected with
// SlowThreshold or SlowFactor set.
func (fs *FS) SlowBundles() []SlowBundle { return fs.asc.SlowBundles() }

// Event is one structured operational event: a leveled, timestamped
// message with ordered key/value fields, emitted by a node subsystem
// (runtime, meta, slo) into its bounded in-memory ring.
type Event = eventlog.Event

// EventField is one ordered key/value pair of an event's structured
// context.
type EventField = eventlog.Field

// EventLevel is an event's severity (debug, info, warn, error).
type EventLevel = eventlog.Level

// Event severity levels.
const (
	EventDebug = eventlog.Debug
	EventInfo  = eventlog.Info
	EventWarn  = eventlog.Warn
	EventError = eventlog.Error
)

// ParseEventLevel parses a level name ("debug", "info", "warn",
// "error").
func ParseEventLevel(s string) (EventLevel, error) { return eventlog.ParseLevel(s) }

// FormatEvent renders one event as the single line dosasctl events
// prints.
func FormatEvent(ev Event) string { return eventlog.FormatEvent(ev) }

// MergeEvents interleaves per-node event sets into one timeline ordered
// by wall-clock time (ties broken by node, then sequence).
func MergeEvents(byNode ...[]Event) []Event { return eventlog.Merge(byNode...) }

// SLORule is one declarative alert rule (threshold, rate-of-change, or
// multi-window burn-rate) evaluated against a node's telemetry rings.
type SLORule = slo.Rule

// DefaultSLORules returns the built-in rule set every node evaluates
// when no -slo-rules file overrides it.
func DefaultSLORules() []SLORule { return slo.DefaultRules() }

// LoadSLORules reads a JSON rule file (see internal/slo for the
// schema), validating every rule.
func LoadSLORules(path string) ([]SLORule, error) { return slo.LoadRules(path) }

// ParseSLORules parses and validates a JSON rule list.
func ParseSLORules(data []byte) ([]SLORule, error) { return slo.ParseRules(data) }

// Alert is the live state of one rule on one node: inactive, pending
// (breaching but inside its dwell), firing, or resolved.
type Alert = slo.Alert

// AlertState is one rule's lifecycle position.
type AlertState = slo.State

// Alert lifecycle states.
const (
	AlertInactive = slo.StateInactive
	AlertPending  = slo.StatePending
	AlertFiring   = slo.StateFiring
	AlertResolved = slo.StateResolved
)

// FormatAlerts renders alerts as the aligned table dosasctl alerts
// prints.
func FormatAlerts(alerts []Alert) string { return slo.FormatAlerts(alerts) }

// Events returns the cluster's merged event timeline — every node's
// retained events at or above min, interleaved by time. limit > 0 keeps
// only the newest limit events per node before merging.
func (c *Cluster) Events(min EventLevel, limit int) []Event {
	sets := make([][]Event, 0, len(c.events)+1)
	if c.metaEvents != nil {
		sets = append(sets, c.metaEvents.Snapshot(0, min, limit))
	}
	for _, ev := range c.events {
		if ev != nil {
			sets = append(sets, ev.Snapshot(0, min, limit))
		}
	}
	return MergeEvents(sets...)
}

// Alerts returns every node's current alert table, metadata server
// first, then storage nodes in layout order. Nodes without an engine
// (telemetry disabled) contribute nothing.
func (c *Cluster) Alerts() []Alert {
	var out []Alert
	if c.metaSLO != nil {
		out = append(out, c.metaSLO.Alerts()...)
	}
	for _, eng := range c.engines {
		if eng != nil {
			out = append(out, eng.Alerts()...)
		}
	}
	return out
}

// EventsPage is one node's slice of the event tail, with the cursor to
// resume tailing from and how many ring entries have been overwritten
// since the node started. Node is the client layout name, matching the
// key of the since map passed to Events; individual events carry the
// emitting daemon's own node name.
type EventsPage struct {
	Node    string
	Events  []Event
	NextSeq uint64
	Dropped uint64
}

// Events fetches each node's retained events over the wire. since maps
// node name to the sequence cursor returned by a previous sweep (nil or
// a missing key fetches from the start of the ring); min filters by
// level and limit > 0 keeps only the newest limit events per node.
// Unreachable nodes and nodes predating the event plane are skipped
// (they surface in Health); decode failures are reported.
func (fs *FS) Events(since map[string]uint64, min EventLevel, limit int) ([]EventsPage, error) {
	var out []EventsPage
	err := sweep(fs, pfs.KindEvents, false, func(name string) any {
		return pfs.EventParams{SinceSeq: since[name], MinLevel: min, Limit: uint64(limit)}
	}, func(name, _ string, r pfs.EventReply) {
		// Key the page by the client layout name — the same key a
		// caller's since map uses — so resume cursors always match even
		// if the daemon was configured with a different node name. The
		// events themselves carry the server-reported name for display.
		out = append(out, EventsPage{Node: name, Events: r.Events, NextSeq: r.NextSeq, Dropped: r.Dropped})
	})
	return out, err
}

// Alerts fetches every node's current alert table over the wire, in
// sweep order. Unreachable nodes and nodes predating the alert plane
// are skipped (they surface in Health); decode failures are reported.
func (fs *FS) Alerts() ([]Alert, error) {
	var out []Alert
	err := sweep(fs, pfs.KindAlerts, false, nil, func(name, _ string, alerts []Alert) {
		for i := range alerts {
			if alerts[i].Node == "" {
				alerts[i].Node = name
			}
		}
		out = append(out, alerts...)
	})
	return out, err
}

// AggregateDecisions computes cluster-wide decision metrics from
// per-node snapshots (local registries or stats introspection replies alike).
func AggregateDecisions(snaps []StatsSnapshot) DecisionMetrics {
	var m DecisionMetrics
	var errSum float64
	for _, s := range snaps {
		m.Arrivals += s.Counter("active.arrivals")
		m.Completed += s.Counter("active.completed")
		m.Bounced += s.Counter("active.rejected") +
			s.Counter("active.rejected_memory") +
			s.Counter("active.bounced_queued")
		m.Interrupted += s.Counter("active.interrupted")
		m.Migrated += s.Counter("active.migrated")
		if h, ok := s.Histograms["est.kernel_error_pct"]; ok && h.Count > 0 {
			m.EstimatorSamples += h.Count
			errSum += h.Mean * float64(h.Count)
			if h.P99 > m.EstimatorErrPctP99 {
				m.EstimatorErrPctP99 = h.P99
			}
		}
	}
	if m.Arrivals > 0 {
		m.BounceRate = float64(m.Bounced) / float64(m.Arrivals)
		m.InterruptRate = float64(m.Interrupted) / float64(m.Arrivals)
	}
	if m.EstimatorSamples > 0 {
		m.EstimatorErrPct = errSum / float64(m.EstimatorSamples)
	}
	return m
}
