// Package daemonflags holds the command-line flags every DOSAS daemon
// shares — the debug endpoint, transport mode, telemetry cadence, and
// the observability plane (event log and SLO rules) — so the five
// binaries register identical names with identical semantics instead of
// five drifting copies.
package daemonflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dosas/internal/eventlog"
	"dosas/internal/openmetrics"
	"dosas/internal/pprofserve"
	"dosas/internal/slo"
	"dosas/internal/telemetry"
	"dosas/internal/tsdb"
)

// Common is the shared flag set. Register the groups a daemon needs,
// call flag.Parse, then use the accessor helpers.
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
	// EventCapacity is -event-capacity: each node's in-memory event
	// ring size (0 = the 1024 default).
	EventCapacity int
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
	// NoQoS is -no-qos: disable the weighted-fair admission gates.
	NoQoS bool
	// HedgeAfter is -hedge-after: the client-side hedged-read fallback
	// trigger on replicated files (0 = hedging disabled).
	HedgeAfter time.Duration
}

// RegisterBase installs the flag every binary shares: the debug endpoint.
func (c *Common) RegisterBase(fs *flag.FlagSet) {
	fs.StringVar(&c.PprofAddr, "pprof-addr", "",
		"serve net/http/pprof and /metrics on this loopback address (e.g. 127.0.0.1:6060; empty = disabled)")
}

// RegisterTelemetry installs -telemetry-tick.
func (c *Common) RegisterTelemetry(fs *flag.FlagSet) {
	fs.DurationVar(&c.TelemetryTick, "telemetry-tick", 0,
		"telemetry sampling interval (0 = 100ms default, negative = disabled)")
}

// RegisterObservability installs the event-log and SLO flags.
func (c *Common) RegisterObservability(fs *flag.FlagSet) {
	fs.StringVar(&c.SLORulesPath, "slo-rules", "",
		"JSON alert-rule file overriding the built-in SLO rules")
	fs.IntVar(&c.EventCapacity, "event-capacity", 0,
		"per-node in-memory event ring size (0 = 1024 default)")
	fs.StringVar(&c.EventDir, "events-dir", "",
		"persist per-node events as JSON lines under this directory (empty = in-memory only)")
	fs.Int64Var(&c.EventsMaxBytes, "events-max-bytes", 0,
		"per-node JSONL event sink budget, live file plus one rotation (0 = 64MiB default, negative = unbounded)")
	fs.StringVar(&c.ArchiveDir, "archive-dir", "",
		"persist per-node telemetry ticks as a durable archive under this directory (empty = disabled)")
	fs.Int64Var(&c.ArchiveMaxBytes, "archive-max-bytes", 0,
		"per-node telemetry archive retention budget (0 = 64MiB default, negative = unbounded)")
}

// RegisterQoS installs the server-side isolation flags: the per-tenant
// scheduling weights and the admission-gate knobs.
func (c *Common) RegisterQoS(fs *flag.FlagSet) {
	fs.StringVar(&c.TenantWeightsSpec, "tenant-weights", "",
		`per-tenant weighted-fair scheduling weights, "tenant=weight,tenant=weight" (empty = equal weights)`)
	fs.IntVar(&c.QoSSlots, "qos-slots", 0,
		"concurrently admitted requests per node admission gate (0 = built-in default)")
	fs.BoolVar(&c.NoQoS, "no-qos", false,
		"disable the weighted-fair admission gates (requests run in arrival order)")
}

// RegisterHedge installs the client-side -hedge-after flag.
func (c *Common) RegisterHedge(fs *flag.FlagSet) {
	fs.DurationVar(&c.HedgeAfter, "hedge-after", 0,
		"duplicate a replicated read to the next-best replica after this delay and cancel the loser (0 = disabled)")
}

// TenantWeights parses -tenant-weights into the weight map consumed by
// the admission gates. Nil (equal weights) for the empty spec.
func (c *Common) TenantWeights() (map[string]float64, error) {
	return ParseTenantWeights(c.TenantWeightsSpec)
}

// ParseTenantWeights parses a "tenant=weight,tenant=weight" spec.
func ParseTenantWeights(spec string) (map[string]float64, error) {
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

// Sampler builds a telemetry sampler per the -telemetry-tick
// convention: zero means the default interval, negative disables.
func (c *Common) Sampler() *telemetry.Sampler {
	if c.TelemetryTick < 0 {
		return nil
	}
	s := telemetry.NewSampler(telemetry.Config{Interval: c.TelemetryTick})
	// Every daemon's sampler carries the Go runtime health series
	// (goroutines, heap in use, GC pause p99) alongside its own probes.
	telemetry.RegisterRuntimeProbes(s)
	return s
}

// EventLog builds one node's structured event log per the event flags:
// ring capacity, optional JSONL sink under -events-dir with the
// -events-max-bytes rotation budget, and a mirror writer (typically
// os.Stderr so the daemon console keeps its commentary).
func (c *Common) EventLog(node string, mirror io.Writer) (*eventlog.Log, error) {
	cfg := eventlog.Config{Node: node, Capacity: c.EventCapacity, Mirror: mirror, MaxBytes: c.EventsMaxBytes}
	if c.EventDir != "" {
		if err := os.MkdirAll(c.EventDir, 0o755); err != nil {
			return nil, err
		}
		cfg.Path = filepath.Join(c.EventDir, node+".events.jsonl")
	}
	return eventlog.New(cfg)
}

// Archive opens node's durable telemetry archive under -archive-dir
// and hooks its appender to the sampler's tick, so every sample lands
// on disk as it lands in the ring. Nil (archive disabled) when
// -archive-dir is unset or telemetry is off. Append failures are
// reported once to the event log rather than per tick.
func (c *Common) Archive(node string, tele *telemetry.Sampler, ev *eventlog.Log) (*tsdb.Archive, error) {
	if c.ArchiveDir == "" || tele == nil {
		return nil, nil
	}
	a, err := tsdb.Open(tsdb.Config{
		Dir:      filepath.Join(c.ArchiveDir, node),
		MaxBytes: c.ArchiveMaxBytes,
	})
	if err != nil {
		return nil, err
	}
	var failed bool
	tele.OnSamples(func(wallNano, monoNano int64, samples []telemetry.Sample) {
		if err := a.Append(wallNano, monoNano, samples); err != nil && !failed {
			failed = true
			ev.Warn("tsdb", "archive append failed", "err", err.Error())
		}
	})
	return a, nil
}

// Rules resolves -slo-rules: the file's validated rules when given, the
// built-in defaults otherwise.
func (c *Common) Rules() ([]slo.Rule, error) {
	if c.SLORulesPath == "" {
		return slo.DefaultRules(), nil
	}
	return slo.LoadRules(c.SLORulesPath)
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
