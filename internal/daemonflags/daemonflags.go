// Package daemonflags holds the command-line flags every DOSAS daemon
// shares — the debug endpoint, telemetry cadence, the observability
// plane (event log, SLO rules, archive), the QoS gates and the storage
// nodes' scheduling policy — so the binaries register identical names
// with identical semantics, and turns them into the dosas.Options a node
// builder takes.
package daemonflags

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dosas"
	"dosas/internal/openmetrics"
	"dosas/internal/pprofserve"
)

// Common is the shared flag set. Register the groups a daemon needs,
// call flag.Parse, then take the Options they set.
type Common struct {
	// PprofAddr is -pprof-addr: the loopback debug endpoint carrying
	// net/http/pprof and /metrics. Empty disables it.
	PprofAddr string
	// TelemetryTick is -telemetry-tick: the sampler interval (0 = the
	// 100 ms default, negative = telemetry disabled).
	TelemetryTick time.Duration
	// SLORulesPath is -slo-rules: a JSON rule file overriding the
	// built-in alert rules. Empty keeps the defaults.
	SLORulesPath string
	// EventDir is -events-dir: where nodes persist events as JSON
	// lines (empty = in-memory only).
	EventDir string
	// EventsMaxBytes is -events-max-bytes: each node's JSONL sink
	// budget, live file plus one rotated predecessor (0 = the 64 MiB
	// default, negative = unbounded).
	EventsMaxBytes int64
	// ArchiveDir is -archive-dir: where nodes persist every telemetry
	// tick as durable, CRC-framed chunk files with downsampling tiers
	// (empty = no archive). Queried by dosasctl query / report.
	ArchiveDir string
	// ArchiveMaxBytes is -archive-max-bytes: each node archive's
	// retention budget across all tiers (0 = the 64 MiB default,
	// negative = unbounded).
	ArchiveMaxBytes int64
	// TenantWeightsSpec is -tenant-weights: per-tenant weighted-fair
	// scheduling weights as "tenant=weight,tenant=weight". Empty means
	// equal weights for everyone.
	TenantWeightsSpec string
	// QoSSlots is -qos-slots: concurrently admitted requests per node
	// gate (0 = the built-in default).
	QoSSlots int
	// HedgeAfter is -hedge-after: the client-side hedged-read fallback
	// trigger on replicated files (0 = hedging disabled).
	HedgeAfter time.Duration
	// Policy is -policy: the storage nodes' scheduling behaviour, "dosas"
	// (dynamic), "as" (always accept) or "ts" (always bounce).
	Policy string
	// policyFlags records that RegisterPolicy ran, so Options checks
	// -policy only on the daemons that take it.
	policyFlags bool
}

// RegisterBase installs the flag every binary shares: the debug endpoint.
func (c *Common) RegisterBase(fs *flag.FlagSet) {
	fs.StringVar(&c.PprofAddr, "pprof-addr", "",
		"serve net/http/pprof and /metrics on this loopback address (e.g. 127.0.0.1:6060; empty = disabled)")
}

// RegisterDaemon installs the flags every server daemon shares: the
// debug endpoint, -telemetry-tick, the event-log, SLO-rule and archive
// flags, and the QoS flags (per-tenant weights and the admission-gate
// knobs).
func (c *Common) RegisterDaemon(fs *flag.FlagSet) {
	c.RegisterBase(fs)
	fs.DurationVar(&c.TelemetryTick, "telemetry-tick", 0,
		"telemetry sampling interval (0 = 100ms default, negative = disabled)")
	fs.StringVar(&c.SLORulesPath, "slo-rules", "",
		"JSON alert-rule file overriding the built-in SLO rules")
	fs.StringVar(&c.EventDir, "events-dir", "",
		"persist per-node events as JSON lines under this directory (empty = in-memory only)")
	fs.Int64Var(&c.EventsMaxBytes, "events-max-bytes", 0,
		"per-node JSONL event sink budget, live file plus one rotation (0 = 64MiB default, negative = unbounded)")
	fs.StringVar(&c.ArchiveDir, "archive-dir", "",
		"persist per-node telemetry ticks as a durable archive under this directory (empty = disabled)")
	fs.Int64Var(&c.ArchiveMaxBytes, "archive-max-bytes", 0,
		"per-node telemetry archive retention budget (0 = 64MiB default, negative = unbounded)")
	fs.StringVar(&c.TenantWeightsSpec, "tenant-weights", "",
		`per-tenant weighted-fair scheduling weights, "tenant=weight,tenant=weight" (empty = equal weights)`)
	fs.IntVar(&c.QoSSlots, "qos-slots", 0,
		"concurrently admitted requests per node admission gate (0 = built-in default)")
}

// RegisterPolicy installs the storage nodes' scheduling flag, -policy.
func (c *Common) RegisterPolicy(fs *flag.FlagSet) {
	c.policyFlags = true
	fs.StringVar(&c.Policy, "policy", "dosas", "scheduling policy: dosas, as, or ts")
}

// RegisterHedge installs the client-side -hedge-after flag.
func (c *Common) RegisterHedge(fs *flag.FlagSet) {
	fs.DurationVar(&c.HedgeAfter, "hedge-after", 0,
		"duplicate a replicated read to the next-best replica after this delay and cancel the loser (0 = disabled)")
}

// Options turns the registered flags into the dosas.Options fields they
// set. Every daemon mirrors its nodes' events to its console (stderr).
func (c *Common) Options() (dosas.Options, error) {
	o := dosas.Options{
		TelemetryTick:   c.TelemetryTick,
		EventMirror:     os.Stderr,
		EventDir:        c.EventDir,
		EventsMaxBytes:  c.EventsMaxBytes,
		ArchiveDir:      c.ArchiveDir,
		ArchiveMaxBytes: c.ArchiveMaxBytes,
		QoSSlots:        c.QoSSlots,
	}
	if c.policyFlags {
		switch c.Policy {
		case "dosas":
			o.Policy = dosas.Dynamic
		case "as":
			o.Policy = dosas.AlwaysAccept
		case "ts":
			o.Policy = dosas.AlwaysBounce
		default:
			return o, fmt.Errorf("unknown -policy %q (want dosas, as, or ts)", c.Policy)
		}
	}
	var err error
	if o.TenantWeights, err = parseTenantWeights(c.TenantWeightsSpec); err != nil {
		return o, err
	}
	if c.SLORulesPath != "" {
		if o.SLORules, err = dosas.LoadSLORules(c.SLORulesPath); err != nil {
			return o, err
		}
	}
	return o, nil
}

// parseTenantWeights parses a "tenant=weight,tenant=weight" spec.
func parseTenantWeights(spec string) (map[string]float64, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	m := make(map[string]float64)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("tenant-weights: %q is not tenant=weight", part)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("tenant-weights: %q needs a positive weight", part)
		}
		m[name] = w
	}
	if len(m) == 0 {
		return nil, nil
	}
	return m, nil
}

// ServeDebug starts the -pprof-addr endpoint with /metrics rendering
// sources, returning the bound address ("" when disabled). sources is
// re-evaluated per scrape, so gauges and alert states stay live.
func (c *Common) ServeDebug(sources func() []openmetrics.Source) (string, error) {
	if c.PprofAddr == "" {
		return "", nil
	}
	extra := []pprofserve.Endpoint{}
	if sources != nil {
		extra = append(extra, pprofserve.Endpoint{
			Path: "/metrics", Handler: openmetrics.Handler(sources),
		})
	}
	return pprofserve.Serve(c.PprofAddr, extra...)
}
