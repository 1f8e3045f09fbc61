package main

import (
	"fmt"
	"path/filepath"

	"dosas"
	"dosas/internal/audit"
	"dosas/internal/core"
	"dosas/internal/eventlog"
	"dosas/internal/metrics"
	"dosas/internal/pfs"
	"dosas/internal/slo"
	"dosas/internal/telemetry"
	"dosas/internal/tenant"
	"dosas/internal/trace"
	"dosas/internal/transport"
)

// shimCluster is the traced pass's deployment: the same servers
// dosas.StartCluster wires, assembled here from the same public
// constructors so timing shims can sit at the interface boundaries.
// net.Conn is not wrapped — the wire package type-asserts *net.TCPConn
// for sendfile. trace.e2e_ratio catches this copy of the wiring drifting
// from StartCluster.
type shimCluster struct {
	metaAddr  string
	dataAddrs []string
	servers   []*pfs.Server
	runtimes  []*core.Runtime
	data      []*pfs.DataServer
	stores    []pfs.Store
	meta      *pfs.MetaServer
	events    []*eventlog.Log
	tables    []*tenant.Table
}

// node builds the observability planes every node carries by default:
// sampler with runtime probes, event ring, and the default alert rules.
func node(name string, reg *metrics.Registry) (*telemetry.Sampler, *eventlog.Log, *slo.Engine, error) {
	tele := telemetry.NewSampler(telemetry.Config{})
	telemetry.RegisterRuntimeProbes(tele)
	ev, err := eventlog.New(eventlog.Config{Node: name})
	if err != nil {
		return nil, nil, nil, err
	}
	eng, err := slo.NewEngine(slo.Config{Rules: slo.DefaultRules(), Sampler: tele, Events: ev, Metrics: reg, Node: name})
	if err != nil {
		return nil, nil, nil, err
	}
	tele.OnTick(eng.Eval)
	return tele, ev, eng, nil
}

// assemble boots the cluster StartCluster(o) would, for the options the
// workloads use (DataServers, Policy, LinkRate, Pace, DataDir over TCP),
// with tr's shims around each server, store and runtime.
func assemble(o dosas.Options, tr *tracer) (cluster, error) {
	var net transport.Network = transport.TCP{}
	bw := 118e6
	if o.LinkRate > 0 {
		net = transport.NewShaped(net, o.LinkRate)
		bw = o.LinkRate
	}
	mode := map[dosas.Policy]core.Mode{
		dosas.Dynamic: core.ModeDynamic, dosas.AlwaysAccept: core.ModeAlwaysAccept, dosas.AlwaysBounce: core.ModeAlwaysBounce,
	}[o.Policy]

	c := &shimCluster{}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()

	metaReg := metrics.NewRegistry()
	metaTele, metaEvents, metaSLO, err := node("meta", metaReg)
	if err != nil {
		return nil, err
	}
	c.events = append(c.events, metaEvents)
	c.meta, err = pfs.NewMetaServer(pfs.MetaConfig{
		NumDataServers: o.DataServers, Metrics: metaReg, Telemetry: metaTele, Events: metaEvents, SLO: metaSLO,
		QoS: &pfs.QoSConfig{}, JournalPath: filepath.Join(o.DataDir, "meta.wal"),
	})
	if err != nil {
		return nil, err
	}
	ml, err := net.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ms := pfs.NewServer(ml, newHandlerShim(tr, "meta", layerMetaSrv, c.meta))
	ms.Start()
	c.servers = append(c.servers, ms)
	c.metaAddr = ms.Addr()

	for i := 0; i < o.DataServers; i++ {
		name := fmt.Sprintf("data-%d", i)
		es, err := pfs.NewExtentStore(pfs.ExtentConfig{Dir: filepath.Join(o.DataDir, name)})
		if err != nil {
			return nil, err
		}
		c.stores = append(c.stores, es)
		store := wrapStore(tr, name, es)
		reg := metrics.NewRegistry()
		rec := trace.NewRecorder(4096)
		rec.SetNode(name)
		alog := audit.NewLog(4096)
		alog.SetNode(name)
		tele, ev, eng, err := node(name, reg)
		if err != nil {
			return nil, err
		}
		c.events = append(c.events, ev)
		tab := tenant.NewTable(tenant.DefaultLimit)
		c.tables = append(c.tables, tab)
		ds, err := pfs.NewDataServer(pfs.DataConfig{
			Store: store, Metrics: reg, Node: name, Trace: rec, Telemetry: tele, Audit: alog,
			Events: ev, SLO: eng, Tenants: tab, QoS: &pfs.QoSConfig{},
		})
		if err != nil {
			return nil, err
		}
		c.data = append(c.data, ds)
		rt, err := core.NewRuntime(core.RuntimeConfig{
			Store: store, Mode: mode, Audit: alog, Estimator: core.EstimatorConfig{BW: bw}, Pace: o.Pace,
			Metrics: reg, Trace: rec, Node: name, Telemetry: tele, Events: ev, Tenants: tab,
		})
		if err != nil {
			return nil, err
		}
		c.runtimes = append(c.runtimes, rt)
		ds.SetActiveHandler(&runtimeShim{Runtime: rt, tr: tr, node: name})
		dl, err := net.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := pfs.NewServer(dl, newHandlerShim(tr, name, layerDataSrv, ds))
		srv.SetFrameStats(ds.WireStats())
		srv.Start()
		c.servers = append(c.servers, srv)
		c.dataAddrs = append(c.dataAddrs, srv.Addr())
	}
	ok = true
	return c, nil
}

func (c *shimCluster) connect(o dosas.ClientOptions) (*dosas.FS, error) {
	o.MetaAddr, o.DataAddrs = c.metaAddr, c.dataAddrs
	return dosas.Connect(o)
}

func (c *shimCluster) stats() map[string]dosas.StatsSnapshot {
	out := map[string]dosas.StatsSnapshot{"meta": c.meta.Metrics().Snapshot()}
	for i, ds := range c.data {
		ds.SyncWireStats()
		out[fmt.Sprintf("data-%d", i)] = ds.Metrics().Snapshot()
	}
	return out
}

func (c *shimCluster) tenants() []dosas.TenantReport {
	var out []dosas.TenantReport
	for i, tab := range c.tables {
		out = append(out, dosas.TenantReport{Node: fmt.Sprintf("data-%d", i), Usage: tab.Snapshot()})
	}
	return out
}

func (c *shimCluster) decisions() dosas.DecisionMetrics {
	var snaps []dosas.StatsSnapshot
	for _, ds := range c.data {
		snaps = append(snaps, ds.Metrics().Snapshot())
	}
	return dosas.AggregateDecisions(snaps)
}

// close mirrors Cluster.Close: runtimes, servers, gates, stores, meta,
// event logs.
func (c *shimCluster) close() {
	for _, rt := range c.runtimes {
		rt.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
	for _, ds := range c.data {
		ds.Close()
	}
	for _, st := range c.stores {
		st.Close()
	}
	if c.meta != nil {
		c.meta.Close()
	}
	for _, ev := range c.events {
		ev.Close()
	}
}
