package core

import (
	"sort"
	"time"

	"dosas/internal/pfs"
	"dosas/internal/telemetry"
	"dosas/internal/trace"
)

// registerProbes wires the client's sampler probes. Runs once from
// NewClient; a nil sampler registers nothing.
func (c *Client) registerProbes() {
	s := c.cfg.Telemetry
	if s == nil {
		return
	}
	s.Register("asc.pending", func() float64 { return float64(c.Pending()) })
	s.Register("asc.ship.bps", telemetry.RateProbe(func() float64 {
		return float64(c.reg.Counter("asc.bytes_shipped").Value())
	}, s.Interval()))
	s.Register("asc.bounce.rate", telemetry.RatioProbe(
		func() float64 { return float64(c.reg.Counter("asc.bounced").Value()) },
		func() float64 {
			return float64(c.reg.Counter("asc.bounced").Value() +
				c.reg.Counter("asc.completed_on_storage").Value() +
				c.reg.Counter("asc.migrated").Value())
		},
	))
	// Connection-pool health: how multiplexed the transport is (streams in
	// flight, priority-lane queue depth) and how often it has to dial.
	pool := c.cfg.FS.Pool().Metrics()
	s.Register("pool.mux.streams", func() float64 {
		return float64(pool.Gauge("pool.mux.streams").Value())
	})
	s.Register("pool.mux.queue", func() float64 {
		return float64(pool.Gauge("pool.mux.queue.control").Value() +
			pool.Gauge("pool.mux.queue.bulk").Value())
	})
	s.Register("pool.dial.rate", telemetry.RateProbe(func() float64 {
		return float64(pool.Counter("pool.dials").Value())
	}, s.Interval()))
}

// Telemetry exposes the client's time-series sampler (nil when disabled).
func (c *Client) Telemetry() *telemetry.Sampler { return c.cfg.Telemetry }

// FlightRecorder exposes the slow-request journal (nil when slow
// detection is disabled).
func (c *Client) FlightRecorder() *telemetry.FlightRecorder { return c.flight }

// SlowBundles returns the journaled slow-request bundles, oldest first.
func (c *Client) SlowBundles() []telemetry.Bundle { return c.flight.Bundles() }

// observeSlow feeds one finished active read into the slow detector and,
// when it fires, captures a flight bundle synchronously — by the time
// ActiveRead returns, the bundle is journaled (and on disk when SlowDir
// is set), so "read returned slow" and "bundle retrievable" are never
// racing.
func (c *Client) observeSlow(res *Result, op string, length uint64) {
	if !c.slow.Enabled() {
		return
	}
	slow, median, reason := c.slow.Observe(res.Elapsed)
	if !slow {
		return
	}
	c.reg.Counter("asc.slow_captured").Inc()
	c.flight.Capture(telemetry.Bundle{
		TraceID:     res.TraceID,
		Op:          op,
		Tenant:      c.cfg.Tenant,
		Bytes:       length,
		Elapsed:     res.Elapsed,
		Median:      median,
		Reason:      reason,
		Disposition: summarizeParts(res.Parts),
		Timeline:    c.stitchTimeline(res.TraceID),
		Series:      c.telemetryWindow(res.Elapsed),
	})
}

// summarizeParts folds per-part execution sites into one disposition
// label: uniform outcomes name the site ("storage", "compute",
// "migrated"); mixed outcomes read "mixed".
func summarizeParts(parts []PartInfo) string {
	if len(parts) == 0 {
		return ""
	}
	first := parts[0].Where
	for _, p := range parts[1:] {
		if p.Where != first {
			return "mixed"
		}
	}
	return first.String()
}

// stitchTimeline merges this trace's events from the client's own ring
// with those fetched from every data server, ordered by wall-clock time
// — the cross-node story of one request. Fetch errors skip that node
// rather than failing the capture: a partial timeline from a degraded
// cluster is exactly when the operator wants the bundle most.
func (c *Client) stitchTimeline(traceID uint64) []trace.Event {
	evs := c.cfg.Trace.HistoryTrace(traceID)
	for i := 0; i < c.cfg.FS.NumDataServers(); i++ {
		addr, err := c.cfg.FS.DataAddr(uint32(i))
		if err != nil {
			continue
		}
		var remote pfs.TraceReply
		if _, err := pfs.Introspect(c.cfg.FS.Pool(), addr, pfs.KindTrace, pfs.TraceParams{TraceID: traceID}, &remote); err != nil {
			continue
		}
		evs = append(evs, remote.Events...)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })
	return evs
}

// telemetryWindow snapshots the client sampler around a request that
// took elapsed: the request's own span plus some margin for the ticks
// before it began.
func (c *Client) telemetryWindow(elapsed time.Duration) []telemetry.Series {
	if c.cfg.Telemetry == nil {
		return nil
	}
	return c.cfg.Telemetry.Snapshot(elapsed + 2*time.Second)
}
