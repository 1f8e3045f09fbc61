package pfs

import (
	"encoding/json"
	"fmt"
	"time"

	"dosas/internal/audit"
	"dosas/internal/eventlog"
	"dosas/internal/metrics"
	"dosas/internal/slo"
	"dosas/internal/telemetry"
	"dosas/internal/tenant"
	"dosas/internal/trace"
	"dosas/internal/tsdb"
	"dosas/internal/wire"
)

// Introspection kinds: the Kind of a wire.IntrospectReq. Each names the
// JSON its Params and the reply's Body carry (DESIGN.md §10).
const (
	KindStats     = "stats"     // no params; StatsReply
	KindTrace     = "trace"     // TraceParams; TraceReply
	KindHealth    = "health"    // no params; telemetry.HealthReport
	KindSeries    = "series"    // SeriesParams; SeriesReply
	KindDecisions = "decisions" // DecisionParams; DecisionReply (storage nodes)
	KindEvents    = "events"    // EventParams; EventReply
	KindAlerts    = "alerts"    // no params; []slo.Alert
	KindTenants   = "tenants"   // no params; TenantReply (storage nodes)
	KindQuery     = "query"     // QueryParams; QueryReply
)

// StatsReply is a node's metric snapshot.
type StatsReply struct {
	Role  string           `json:"role"`
	Mode  string           `json:"mode,omitempty"` // a storage node's scheduling mode
	Stats metrics.Snapshot `json:"stats"`
}

// TraceParams filters the trace ring to one request id or one trace (zero
// means no filter; the trace id wins when both are set).
type TraceParams struct {
	ReqID   uint64 `json:"req_id,omitempty"`
	TraceID uint64 `json:"trace_id,omitempty"`
}

// TraceReply is a node's retained trace events. Dropped counts events its
// ring overwrote: non-zero means the timeline may be incomplete.
type TraceReply struct {
	Events  []trace.Event `json:"events"`
	Dropped uint64        `json:"dropped,omitempty"`
}

// SeriesParams restricts a telemetry history to the trailing window (≤ 0:
// all retained) and to named series (empty: all).
type SeriesParams struct {
	WindowNano int64    `json:"window_nano,omitempty"`
	Names      []string `json:"names,omitempty"`
}

// SeriesReply is a node's telemetry history, its sampler's tick, and how
// many samples its rings have overwritten since boot.
type SeriesReply struct {
	Series   []telemetry.Series `json:"series"`
	TickNano int64              `json:"tick_nano"`
	Dropped  uint64             `json:"dropped,omitempty"`
}

// DecisionParams filters a decision log: the trace filter first, then the
// trailing Limit records (zero means no filter).
type DecisionParams struct {
	Limit   uint64 `json:"limit,omitempty"`
	TraceID uint64 `json:"trace_id,omitempty"`
}

// DecisionReply is a storage node's retained scheduling decisions, and how
// many its ring has overwritten since boot.
type DecisionReply struct {
	Records []audit.Record `json:"records"`
	Dropped uint64         `json:"dropped,omitempty"`
}

// EventParams tails an event ring: events after SinceSeq, at or above
// MinLevel, at most the newest Limit (zero: all).
type EventParams struct {
	SinceSeq uint64         `json:"since_seq,omitempty"`
	Limit    uint64         `json:"limit,omitempty"`
	MinLevel eventlog.Level `json:"min_level,omitempty"`
}

// EventReply is a node's event tail. NextSeq is its next sequence number
// (feed NextSeq-1 back as SinceSeq to resume); Dropped is how many events
// its ring has overwritten since boot.
type EventReply struct {
	Events  []eventlog.Event `json:"events"`
	NextSeq uint64           `json:"next_seq"`
	Dropped uint64           `json:"dropped,omitempty"`
}

// TenantReply is a storage node's tenant table. Evicted counts tenants
// folded into the tenant.Evicted row since the node started. Usage is nil
// (null on the wire) on a node without a tenant table, and empty on one
// whose table has no rows yet.
type TenantReply struct {
	Usage   []tenant.Usage `json:"usage"`
	Evicted uint64         `json:"evicted,omitempty"`
}

// QueryParams asks a node's telemetry archive for one series over a
// wall-clock window, reduced to per-step bucket means when StepNano > 0.
type QueryParams struct {
	Name     string `json:"name"`
	FromNano int64  `json:"from_nano"`
	ToNano   int64  `json:"to_nano"`
	StepNano int64  `json:"step_nano,omitempty"`
}

// QueryReply is the archived points, and the oldest instant the archive
// still retains (0 without an archive), so a client can tell "no data in
// the window" from "the window predates retention".
type QueryReply struct {
	Points       []telemetry.Point `json:"points"`
	EarliestNano int64             `json:"earliest_nano,omitempty"`
}

// planes are what a server answers introspection from. Any plane may be
// nil: it answers empty, so a sweep of a mixed cluster needs no special
// case.
type planes struct {
	node, role string
	started    time.Time
	reg        *metrics.Registry
	trace      *trace.Recorder
	tele       *telemetry.Sampler
	audit      *audit.Log
	events     *eventlog.Log
	slo        *slo.Engine
	tenants    *tenant.Table
	archive    *tsdb.Archive
}

// introspectHook is what only the server itself knows.
type introspectHook interface {
	// healthChecks returns the server's readiness checks.
	healthChecks() []telemetry.Check
	// statsMode brings mirrored counters into the registry before a
	// snapshot, and names the scheduling mode ("" for none).
	statsMode() string
}

// introspectKind answers one kind from a server's planes. dataOnly kinds
// are served by storage nodes alone.
type introspectKind struct {
	dataOnly bool
	answer   func(p *planes, h introspectHook, params []byte) (any, error)
}

// kind builds an introspectKind whose answer takes params of type P:
// empty params are P's zero value, and params that do not decode are
// ErrInvalid.
func kind[P any](dataOnly bool, answer func(p *planes, h introspectHook, q P) (any, error)) introspectKind {
	return introspectKind{dataOnly: dataOnly, answer: func(p *planes, h introspectHook, raw []byte) (any, error) {
		var q P
		if len(raw) > 0 {
			if err := json.Unmarshal(raw, &q); err != nil {
				return nil, fmt.Errorf("%w: introspection params: %v", ErrInvalid, err)
			}
		}
		return answer(p, h, q)
	}}
}

// none is the params of kinds that take none.
type none struct{}

var introspectKinds = map[string]introspectKind{
	KindStats: kind(false, func(p *planes, h introspectHook, _ none) (any, error) {
		mode := h.statsMode()
		return StatsReply{Role: p.role, Mode: mode, Stats: p.reg.Snapshot()}, nil
	}),
	KindTrace: kind(false, func(p *planes, _ introspectHook, q TraceParams) (any, error) {
		var evs []trace.Event
		switch {
		case q.TraceID != 0:
			evs = p.trace.HistoryTrace(q.TraceID)
		case q.ReqID != 0:
			evs = p.trace.History(q.ReqID)
		default:
			evs = p.trace.Snapshot()
		}
		return TraceReply{Events: evs, Dropped: p.trace.Dropped()}, nil
	}),
	KindHealth: kind(false, func(p *planes, h introspectHook, _ none) (any, error) {
		rep := telemetry.HealthReport{Node: p.node, Role: p.role, Checks: h.healthChecks()}.Summarize()
		rep.UptimeNano = time.Since(p.started).Nanoseconds()
		return rep, nil
	}),
	KindSeries: kind(false, func(p *planes, _ introspectHook, q SeriesParams) (any, error) {
		window := time.Duration(q.WindowNano)
		var series []telemetry.Series
		if len(q.Names) == 0 {
			series = p.tele.Snapshot(window)
		}
		for _, name := range q.Names {
			if s, ok := p.tele.Get(name, window); ok {
				series = append(series, s)
			}
		}
		return SeriesReply{Series: series, TickNano: int64(p.tele.Interval()), Dropped: p.tele.Dropped()}, nil
	}),
	KindDecisions: kind(true, func(p *planes, _ introspectHook, q DecisionParams) (any, error) {
		records := p.audit.Snapshot()
		if q.TraceID != 0 {
			records = audit.FilterTrace(records, q.TraceID)
		}
		if q.Limit > 0 {
			records = audit.Last(records, int(q.Limit))
		}
		return DecisionReply{Records: records, Dropped: p.audit.Dropped()}, nil
	}),
	KindEvents: kind(false, func(p *planes, _ introspectHook, q EventParams) (any, error) {
		evs := p.events.Snapshot(q.SinceSeq, q.MinLevel, int(q.Limit))
		return EventReply{Events: evs, NextSeq: p.events.NextSeq(), Dropped: p.events.Dropped()}, nil
	}),
	KindAlerts: kind(false, func(p *planes, _ introspectHook, _ none) (any, error) {
		return p.slo.Alerts(), nil
	}),
	KindTenants: kind(true, func(p *planes, _ introspectHook, _ none) (any, error) {
		return TenantReply{Usage: p.tenants.Snapshot(), Evicted: p.tenants.Evictions()}, nil
	}),
	KindQuery: kind(false, func(p *planes, _ introspectHook, q QueryParams) (any, error) {
		points, err := p.archive.Query(q.Name, q.FromNano, q.ToNano)
		if err != nil {
			return nil, fmt.Errorf("%w: archive query: %v", ErrInvalid, err)
		}
		return QueryReply{Points: telemetry.Downsample(points, q.StepNano), EarliestNano: p.archive.Earliest()}, nil
	}),
}

// introspect answers one IntrospectReq: an unknown kind, or one this
// server's role does not serve, is ErrUnsupported.
func (p *planes) introspect(req *wire.IntrospectReq, h introspectHook) (wire.Message, error) {
	k, ok := introspectKinds[req.Kind]
	if !ok || k.dataOnly && p.role != "data" {
		return nil, fmt.Errorf("%w: introspection kind %q on a %s server", ErrUnsupported, req.Kind, p.role)
	}
	reply, err := k.answer(p, h, req.Params)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(reply)
	if err != nil {
		return nil, fmt.Errorf("%w: encoding %s: %v", ErrInvalid, req.Kind, err)
	}
	return &wire.IntrospectResp{Node: p.node, Body: body}, nil
}

// Introspect asks the server at addr for one kind, with params (nil for
// none) as its JSON, and decodes the reply's body into reply. It returns
// the name the server answered with. A failure to ask — an unreachable
// server, a remote error — is returned as it is; an answer that does not
// decode is ErrInvalid.
func Introspect(p *Pool, addr, kind string, params, reply any) (string, error) {
	return introspectVia(func(req wire.Message) (wire.Message, error) { return p.Call(addr, req) }, kind, params, reply)
}

// IntrospectLocal is Introspect asking a server in process, through its
// Handle.
func IntrospectLocal(h Handler, kind string, params, reply any) (string, error) {
	return introspectVia(h.Handle, kind, params, reply)
}

func introspectVia(call func(wire.Message) (wire.Message, error), kind string, params, reply any) (string, error) {
	req := &wire.IntrospectReq{Kind: kind}
	if params != nil {
		js, err := json.Marshal(params)
		if err != nil {
			return "", fmt.Errorf("%w: %s params: %v", ErrInvalid, kind, err)
		}
		req.Params = js
	}
	resp, err := call(req)
	if err != nil {
		return "", err
	}
	ir, ok := resp.(*wire.IntrospectResp)
	if !ok {
		return "", fmt.Errorf("%w: %s answered with %v", ErrInvalid, kind, resp.Type())
	}
	if err := json.Unmarshal(ir.Body, reply); err != nil {
		return ir.Node, fmt.Errorf("%w: %s reply: %v", ErrInvalid, kind, err)
	}
	return ir.Node, nil
}
