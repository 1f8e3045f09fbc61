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
	n, err := c.storageNode(node)
	if err != nil {
		return nil, err
	}
	var r pfs.TraceReply
	_, err = n.ask(pfs.KindTrace, nil, &r)
	return r.Events, err
}

// Stats returns every node's metric snapshot, keyed by node name
// ("meta", "data-0", …) — the cluster-wide aggregate view of what each
// server has counted.
func (c *Cluster) Stats() map[string]StatsSnapshot {
	out := make(map[string]StatsSnapshot, len(c.nodes))
	_ = sweep(c.peers(), pfs.KindStats, false, nil, func(name, _ string, r pfs.StatsReply) { out[name] = r.Stats })
	return out
}

// TraceTimeline stitches the storage-side events of one distributed
// trace across every node into a single chronological timeline. Client
// recorders are not visible to the cluster; merge FS.TraceEvents output
// with StitchTimeline for the complete picture.
func (c *Cluster) TraceTimeline(traceID uint64) []TraceEvent {
	var sets [][]TraceEvent
	_ = sweep(c.peers(), pfs.KindTrace, false, func(string) any { return pfs.TraceParams{TraceID: traceID} },
		func(_, _ string, r pfs.TraceReply) { sets = append(sets, r.Events) })
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
	var snaps []StatsSnapshot
	_ = sweep(c.peers(), pfs.KindStats, true, nil, func(_, _ string, r pfs.StatsReply) { snaps = append(snaps, r.Stats) })
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

// Health reports every node's liveness and per-resource readiness —
// metadata server first, then storage nodes in layout order — answered
// in process by the handlers that serve the health introspection on the
// wire, so it matches what dosasctl health sees.
func (c *Cluster) Health() []HealthReport { return c.peers().health() }

// Series returns the trailing window of every node's telemetry history,
// keyed by node name ("meta", "data-0", …). Nodes without a sampler
// (Options.TelemetryTick < 0) are omitted. window ≤ 0 means the full
// retained history.
func (c *Cluster) Series(window time.Duration) map[string][]Series {
	out, _ := c.peers().series(window, nil)
	return out
}

// peer is one node a sweep asks: its layout name ("meta", "data-0", …),
// its role, and how to ask it one introspection kind — over the wire for
// an FS, in process for a Cluster.
type peer struct {
	name, role string
	ask        func(kind string, params, reply any) (node string, err error)
}

// peers are a cluster's nodes in sweep order: metadata server first, then
// storage nodes in layout order. Every cluster-wide read, FS and Cluster
// alike, is one of their methods.
type peers []peer

// peers asks the connected cluster's nodes over the pool.
func (fs *FS) peers() peers {
	pool := fs.pc.Pool()
	at := func(name, role, addr string) peer {
		return peer{name, role, func(kind string, params, reply any) (string, error) {
			return pfs.Introspect(pool, addr, kind, params, reply)
		}}
	}
	out := peers{at("meta", "meta", fs.pc.MetaAddr())}
	for i := 0; i < fs.pc.NumDataServers(); i++ {
		if addr, err := fs.pc.DataAddr(uint32(i)); err == nil {
			out = append(out, at(fmt.Sprintf("data-%d", i), "data", addr))
		}
	}
	return out
}

// sweep asks every peer — only the storage nodes when dataOnly — for one
// introspection kind, in sweep order, and hands keep each reply with the
// peer's layout name and the name it answered with (the layout name when
// it gave none). params gives a peer's params by layout name; nil asks
// with none. A peer that cannot be asked, or does not serve the kind, is
// skipped (it surfaces in Health); a reply that does not decode ends the
// sweep with its error.
func sweep[R any](ps peers, kind string, dataOnly bool, params func(name string) any, keep func(name, node string, reply R)) error {
	for _, p := range ps {
		if dataOnly && p.role != "data" {
			continue
		}
		var q any
		if params != nil {
			q = params(p.name)
		}
		var reply R
		node, err := p.ask(kind, q, &reply)
		if errors.Is(err, pfs.ErrInvalid) {
			return fmt.Errorf("dosas: %s: %w", p.name, err)
		}
		if err != nil {
			continue
		}
		if node == "" {
			node = p.name
		}
		keep(p.name, node, reply)
	}
	return nil
}

// Health sweeps every node of the connected cluster over the wire and
// reports liveness plus per-resource readiness. Unreachable nodes come
// back as not-ready reports with a failing "reachable" check rather
// than an error — a health sweep of a degraded cluster must not itself
// fail.
func (fs *FS) Health() []HealthReport { return fs.peers().health() }

func (ps peers) health() []HealthReport {
	out := make([]HealthReport, 0, len(ps))
	for _, p := range ps {
		var rep HealthReport
		if _, err := p.ask(pfs.KindHealth, nil, &rep); err != nil {
			rep = HealthReport{Node: p.name, Role: p.role, Checks: []HealthCheck{{Name: "reachable", Detail: err.Error()}}}
		}
		out = append(out, rep)
	}
	return out
}

// Series fetches the trailing window of every node's telemetry history
// over the wire, keyed by node name. names, when given, restrict the
// fetch to those series. Nodes without a sampler are omitted;
// unreachable nodes are skipped (they surface in Health); decode
// failures are reported.
func (fs *FS) Series(window time.Duration, names ...string) (map[string][]Series, error) {
	return fs.peers().series(window, names)
}

func (ps peers) series(window time.Duration, names []string) (map[string][]Series, error) {
	out := make(map[string][]Series)
	params := pfs.SeriesParams{WindowNano: int64(window), Names: names}
	err := sweep(ps, pfs.KindSeries, false, func(string) any { return params },
		func(_, node string, r pfs.SeriesReply) {
			if r.TickNano > 0 { // a node without a sampler reports no tick
				out[node] = r.Series
			}
		})
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
	pages, _ := c.peers().events(nil, min, limit)
	return mergePages(pages)
}

// Alerts returns every node's current alert table, metadata server
// first, then storage nodes in layout order. Nodes without an engine
// (telemetry disabled) contribute nothing.
func (c *Cluster) Alerts() []Alert {
	out, _ := c.peers().alerts()
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
	return fs.peers().events(since, min, limit)
}

func (ps peers) events(since map[string]uint64, min EventLevel, limit int) ([]EventsPage, error) {
	var out []EventsPage
	err := sweep(ps, pfs.KindEvents, false, func(name string) any {
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

// mergePages interleaves the pages' events into one timeline.
func mergePages(pages []EventsPage) []Event {
	sets := make([][]Event, 0, len(pages))
	for _, p := range pages {
		sets = append(sets, p.Events)
	}
	return MergeEvents(sets...)
}

// Alerts fetches every node's current alert table over the wire, in
// sweep order. Unreachable nodes and nodes predating the alert plane
// are skipped (they surface in Health); decode failures are reported.
func (fs *FS) Alerts() ([]Alert, error) { return fs.peers().alerts() }

func (ps peers) alerts() ([]Alert, error) {
	var out []Alert
	err := sweep(ps, pfs.KindAlerts, false, nil, func(name, _ string, alerts []Alert) {
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
