package dosas

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dosas/internal/audit"
	"dosas/internal/core"
	"dosas/internal/eventlog"
	"dosas/internal/metrics"
	"dosas/internal/openmetrics"
	"dosas/internal/pfs"
	"dosas/internal/slo"
	"dosas/internal/telemetry"
	"dosas/internal/tenant"
	"dosas/internal/trace"
	"dosas/internal/transport"
	"dosas/internal/tsdb"
)

// Node is one running DOSAS server with the observability planes it
// serves: a storage node (the pfs data service, the Active I/O Runtime
// and its Contention Estimator — the paper's Figure 1) or the metadata
// server. StartCluster is one metadata node plus Options.DataServers
// storage nodes; dosas-server and dosas-meta are one node each.
type Node struct {
	name, role string
	handler    pfs.Handler // what introspection asks: the data or the metadata server
	srv        *pfs.Server
	rt         *core.Runtime
	ds         *pfs.DataServer
	store      pfs.Store
	meta       *pfs.MetaServer
	tele       *telemetry.Sampler
	events     *eventlog.Log
	archive    *tsdb.Archive
	closeOnce  sync.Once
}

// StartStorageNode boots one storage node named name, listening on addr
// over TCP (Options.TCP is implied). Its stripes live under dir, or in
// memory when dir is empty; the store, scheduling, telemetry, event,
// archive, tenant and QoS options apply as they do to each storage node
// of StartCluster.
func StartStorageNode(o Options, name, addr, dir string) (*Node, error) {
	o.TCP = true
	o = o.withDefaults()
	return startStorage(o, o.network(), name, addr, dir)
}

// StartMetaNode boots the metadata server, listening on addr over TCP
// (Options.TCP is implied), for a cluster of Options.DataServers storage
// nodes. With journal set, the namespace is journaled there and replayed
// on start.
func StartMetaNode(o Options, addr, journal string) (*Node, error) {
	o.TCP = true
	o = o.withDefaults()
	return startMeta(o, o.network(), addr, journal)
}

// withDefaults fills the options every node builder reads.
func (o Options) withDefaults() Options {
	if o.DataServers <= 0 {
		o.DataServers = 4
	}
	if o.NetworkBandwidth == 0 {
		o.NetworkBandwidth = 118e6
		if o.LinkRate > 0 {
			o.NetworkBandwidth = o.LinkRate
		}
	}
	return o
}

// network is the transport the options ask for: in-process or TCP
// loopback, shaped and delayed when LinkRate and LinkDelay are set.
func (o Options) network() transport.Network {
	var net transport.Network = transport.NewInproc()
	if o.TCP {
		net = transport.TCP{}
	}
	if o.LinkRate > 0 {
		net = transport.NewShaped(net, o.LinkRate)
	}
	if o.LinkDelay > 0 {
		net = transport.NewDelayed(net, o.LinkDelay)
	}
	return net
}

// startStorage builds a storage node on net. On error everything built so
// far is closed.
func startStorage(o Options, net transport.Network, name, addr, dir string) (_ *Node, err error) {
	n := &Node{name: name, role: "data"}
	defer func() {
		if err != nil {
			n.Close() // the build error is the one to report
		}
	}()
	if n.store, err = o.openStore(dir); err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	// The data server and the runtime share every plane: the runtime
	// records traces and decisions, registers the sampler's probes and
	// accounts tenants, and the server serves them all as introspection.
	tr := trace.NewRecorder(4096)
	tr.SetNode(name)
	alog := audit.NewLog(4096)
	alog.SetNode(name)
	n.tele = newSampler(o.TelemetryTick)
	if n.events, err = o.newEventLog(name); err != nil {
		return nil, err
	}
	var tab *tenant.Table
	if !o.DisableTenants {
		limit := o.TenantLimit
		if limit <= 0 {
			limit = tenant.DefaultLimit
		}
		tab = tenant.NewTable(limit)
	}
	eng, err := o.newEngine(name, n.tele, n.events, reg, tab)
	if err != nil {
		return nil, err
	}
	if n.archive, err = o.newArchive(name, n.tele, n.events); err != nil {
		return nil, err
	}
	if n.ds, err = pfs.NewDataServer(pfs.DataConfig{
		Store: n.store, Metrics: reg, Node: name, Trace: tr, Telemetry: n.tele, Audit: alog,
		Events: n.events, SLO: eng, Tenants: tab, Archive: n.archive, QoS: o.qosConfig(),
	}); err != nil {
		return nil, err
	}
	n.handler = n.ds
	if n.rt, err = core.NewRuntime(core.RuntimeConfig{
		Store: n.store,
		Mode:  o.Policy.mode(),
		Audit: alog,
		Estimator: core.EstimatorConfig{
			BW:     o.NetworkBandwidth,
			Period: o.EstimatorPeriod,
		},
		Pace:      o.Pace,
		Metrics:   reg,
		Trace:     tr,
		Node:      name,
		Telemetry: n.tele,
		Events:    n.events,
		Tenants:   tab,
	}); err != nil {
		return nil, err
	}
	n.ds.SetActiveHandler(n.rt)
	l, err := net.Listen(addr)
	if err != nil {
		return nil, err
	}
	n.srv = pfs.NewServer(l, n.ds)
	n.srv.SetFrameStats(n.ds.WireStats())
	n.srv.Start()
	n.events.Info("server", "serving stripes",
		"addr", n.srv.Addr(), "policy", o.Policy.mode().String(),
		"bw_mbps", fmt.Sprintf("%.0f", o.NetworkBandwidth/1e6), "pace", fmt.Sprint(o.Pace), "store", dir)
	return n, nil
}

// startMeta builds the metadata node on net. On error everything built
// so far is closed.
func startMeta(o Options, net transport.Network, addr, journal string) (_ *Node, err error) {
	n := &Node{name: "meta", role: "meta"}
	defer func() {
		if err != nil {
			n.Close() // the build error is the one to report
		}
	}()
	reg := metrics.NewRegistry()
	n.tele = newSampler(o.TelemetryTick)
	if n.events, err = o.newEventLog(n.name); err != nil {
		return nil, err
	}
	eng, err := o.newEngine(n.name, n.tele, n.events, reg, nil)
	if err != nil {
		return nil, err
	}
	if n.archive, err = o.newArchive(n.name, n.tele, n.events); err != nil {
		return nil, err
	}
	if n.meta, err = pfs.NewMetaServer(pfs.MetaConfig{
		NumDataServers:    o.DataServers,
		DefaultStripeSize: o.StripeSize,
		JournalPath:       journal,
		Metrics:           reg,
		Telemetry:         n.tele,
		Events:            n.events,
		SLO:               eng,
		Archive:           n.archive,
		QoS:               o.qosConfig(),
	}); err != nil {
		return nil, err
	}
	n.handler = n.meta
	l, err := net.Listen(addr)
	if err != nil {
		return nil, err
	}
	n.srv = pfs.NewServer(l, n.meta)
	n.srv.Start()
	n.events.Info("meta", "serving namespace",
		"addr", n.srv.Addr(), "data_servers", fmt.Sprint(o.DataServers), "journal", journal)
	return n, nil
}

// Addr returns the address the node listens on.
func (n *Node) Addr() string { return n.srv.Addr() }

// CompactJournal rewrites the metadata node's journal as a snapshot of
// the live namespace. A storage node has no journal.
func (n *Node) CompactJournal() error {
	if n.meta == nil {
		return fmt.Errorf("dosas: %s has no journal", n.name)
	}
	return n.meta.CompactJournal()
}

// MetricsSources gathers the node's exposition inputs for the OpenMetrics
// endpoint, labeled with the node's name.
func (n *Node) MetricsSources() []openmetrics.Source {
	return peers{{n.name, n.role, n.ask}}.metricsSources()
}

// Close stops the node and releases what it holds, in one order: the
// runtime, the RPC server, the data server's admission gate, the store,
// the metadata server, then the sampler and the event log, and the
// archive last — its feeding sampler has stopped, so the final flush
// seals every open downsample bucket. Parts that were never built are
// skipped, so a builder's error path closes a half-built node the same
// way. It returns what the store, journal, event sink and archive
// reported on closing. Safe to call more than once.
func (n *Node) Close() error {
	var errs []error
	n.closeOnce.Do(func() {
		if n.rt != nil {
			n.rt.Close()
		}
		if n.srv != nil {
			n.srv.Close()
		}
		if n.ds != nil {
			n.ds.Close()
		}
		if n.store != nil {
			errs = append(errs, n.store.Close())
		}
		if n.meta != nil {
			errs = append(errs, n.meta.Close())
		}
		n.tele.Close()
		errs = append(errs, n.events.Close(), n.archive.Close())
	})
	return errors.Join(errs...)
}

// ask answers one introspection kind in process, through the same
// handler that serves it on the wire: no admission gate, and nothing
// counted as data in flight.
func (n *Node) ask(kind string, params, reply any) (string, error) {
	return pfs.IntrospectLocal(n.handler, kind, params, reply)
}

// openStore opens a storage node's stripe store: in memory when dir is
// empty, else the on-disk backend StoreBackend names.
func (o Options) openStore(dir string) (pfs.Store, error) {
	switch {
	case dir == "":
		return pfs.NewMemStore(), nil
	case o.StoreBackend == "" || o.StoreBackend == "extent":
		return pfs.NewExtentStore(pfs.ExtentConfig{Dir: dir, Sync: o.StoreSync, FDCacheSize: o.FDCacheSize})
	case o.StoreBackend == "file":
		return pfs.NewFileStoreConfig(pfs.FileStoreConfig{Dir: dir, Sync: o.StoreSync, FDCacheSize: o.FDCacheSize})
	}
	return nil, fmt.Errorf("dosas: unknown store backend %q (want extent or file)", o.StoreBackend)
}

// qosConfig builds the per-node admission gate config.
func (o Options) qosConfig() *pfs.QoSConfig {
	return &pfs.QoSConfig{Slots: o.QoSSlots, Weights: o.TenantWeights}
}

// newSampler builds one node's telemetry sampler: a zero tick means the
// default interval, a negative one disables telemetry.
func newSampler(tick time.Duration) *telemetry.Sampler {
	if tick < 0 {
		return nil
	}
	s := telemetry.NewSampler(telemetry.Config{Interval: tick})
	// Every sampler carries the Go runtime health series (goroutines,
	// heap in use, GC pause p99) alongside the node's own probes.
	telemetry.RegisterRuntimeProbes(s)
	return s
}

// newEventLog builds one node's structured event log per the event
// options.
func (o Options) newEventLog(node string) (*eventlog.Log, error) {
	cfg := eventlog.Config{Node: node, Mirror: o.EventMirror, MaxBytes: o.EventsMaxBytes}
	if o.EventDir != "" {
		if err := os.MkdirAll(o.EventDir, 0o755); err != nil {
			return nil, err
		}
		cfg.Path = filepath.Join(o.EventDir, node+".events.jsonl")
	}
	return eventlog.New(cfg)
}

// newArchive opens one node's durable telemetry archive under
// ArchiveDir/<node> and hooks its appender to the sampler's tick. Nil
// (archive disabled) when ArchiveDir is unset or telemetry is off.
// Append failures are reported once to the node's event log rather than
// per tick — a full disk would otherwise flood it.
func (o Options) newArchive(node string, tele *telemetry.Sampler, ev *eventlog.Log) (*tsdb.Archive, error) {
	if o.ArchiveDir == "" || tele == nil {
		return nil, nil
	}
	a, err := tsdb.Open(tsdb.Config{Dir: filepath.Join(o.ArchiveDir, node), MaxBytes: o.ArchiveMaxBytes})
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

// newEngine builds one node's SLO engine over its sampler and hooks
// evaluation to the sampler's tick, so alert rules are re-judged exactly
// once per fresh sample. Nil when telemetry is disabled. A
// non-nil tenant table names the dominant waiter on noisy-neighbor
// transitions in the event log.
func (o Options) newEngine(node string, tele *telemetry.Sampler, ev *eventlog.Log, reg *metrics.Registry, tab *tenant.Table) (*slo.Engine, error) {
	if tele == nil {
		return nil, nil
	}
	rules := o.SLORules
	if rules == nil {
		rules = slo.DefaultRules()
	}
	cfg := slo.Config{Rules: rules, Sampler: tele, Events: ev, Metrics: reg, Node: node}
	if tab != nil {
		cfg.Annotate = func(rule string) []string {
			if rule != "noisy-neighbor" {
				return nil
			}
			top, share := tab.TopWait()
			if top == "" {
				return nil
			}
			return []string{"tenant", top, "share", fmt.Sprintf("%.2f", share)}
		}
	}
	eng, err := slo.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	tele.OnTick(eng.Eval)
	return eng, nil
}
