package dosas

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"dosas/internal/core"
	"dosas/internal/openmetrics"
	"dosas/internal/pfs"
	"dosas/internal/trace"
	"dosas/internal/transport"
)

// Scheme selects how clients issue analysis reads — the paper's three
// evaluated schemes.
type Scheme int

// Client schemes.
const (
	// DOSAS requests active I/O and lets each storage node's dynamic
	// policy accept, bounce, or interrupt it (the paper's contribution).
	DOSAS Scheme = iota
	// AS always requests active I/O (classic active storage).
	AS
	// TS never requests active I/O: raw reads plus local compute
	// (traditional storage).
	TS
)

// String names the scheme as the paper abbreviates it.
func (s Scheme) String() string { return s.core().String() }

func (s Scheme) core() core.Scheme {
	switch s {
	case AS:
		return core.SchemeAS
	case TS:
		return core.SchemeTS
	default:
		return core.SchemeDOSAS
	}
}

// Policy selects a storage node's server-side scheduling behaviour.
type Policy int

// Server policies.
const (
	// Dynamic is DOSAS scheduling: the Contention Estimator's policy
	// decides per request.
	Dynamic Policy = iota
	// AlwaysAccept runs every active request on the storage node.
	AlwaysAccept
	// AlwaysBounce rejects every active request.
	AlwaysBounce
)

func (p Policy) mode() core.Mode {
	switch p {
	case AlwaysAccept:
		return core.ModeAlwaysAccept
	case AlwaysBounce:
		return core.ModeAlwaysBounce
	default:
		return core.ModeDynamic
	}
}

// Options configures StartCluster.
type Options struct {
	// DataServers is the number of storage nodes (default 4).
	DataServers int
	// Policy is the storage nodes' scheduling behaviour (default
	// Dynamic).
	Policy Policy
	// StripeSize is the default stripe size for new files (default
	// 64 KiB).
	StripeSize uint32
	// TCP switches from the in-process transport to real TCP loopback
	// sockets (one listener per server).
	TCP bool
	// TCPBasePort, when positive with TCP set, binds the metadata server
	// to 127.0.0.1:TCPBasePort and storage node i to TCPBasePort+1+i.
	// Zero picks ephemeral ports.
	TCPBasePort int
	// LinkRate, when positive, shapes each server's link to this many
	// bytes/second — set 118e6 to emulate the paper's measured Gigabit
	// Ethernet on a fast host.
	LinkRate float64
	// LinkDelay, when positive, adds this one-way propagation delay to
	// every connection in each direction — cross-rack or datacenter-hop
	// latency emulation. Composes with LinkRate.
	LinkDelay time.Duration
	// NetworkBandwidth is what the Contention Estimator assumes for bw;
	// defaults to LinkRate when shaped, else 118 MB/s.
	NetworkBandwidth float64
	// Pace throttles kernel execution to the calibrated per-core rates,
	// emulating the paper's hardware timing in live runs.
	Pace bool
	// EstimatorPeriod is how often each storage node's Contention
	// Estimator re-probes and re-evaluates its policy (default 50 ms).
	EstimatorPeriod time.Duration
	// DataDir, when set, backs stripe stores with files under this
	// directory (one subdirectory per storage node) and journals
	// metadata, making the cluster durable across restarts.
	DataDir string
	// StoreBackend picks the on-disk store format when DataDir is set:
	// "extent" (default; extent files plus the zero-copy read path) or
	// "file" (the v0 one-file-per-handle layout, kept as the bench
	// baseline and for pre-extent data directories).
	StoreBackend string
	// StoreSync makes disk-backed stores fsync after every write and
	// truncate (-fsync on the daemons). Off by default: the page cache
	// absorbs write bursts and the workloads are re-runnable.
	StoreSync bool
	// FDCacheSize caps each disk-backed store's open descriptors
	// (default pfs.DefaultFDCacheSize).
	FDCacheSize int
	// WindowDepth is how many chunk requests clients connected through
	// this Cluster keep in flight per server connection during bulk
	// transfers (default pfs.DefaultWindowDepth; 1 disables pipelining).
	WindowDepth int
	// TransferChunk is the per-request chunk size for those bulk
	// transfers (default pfs.DefaultTransferChunk). Smaller chunks make
	// the window matter more on high-latency links.
	TransferChunk int
	// TelemetryTick is how often each node samples its telemetry probes
	// into the time-series rings served by Health/Series and dosasctl
	// top. Zero takes telemetry.DefaultInterval (100 ms); negative
	// disables node telemetry entirely.
	TelemetryTick time.Duration
	// SLORules are the alert rules every node's SLO engine evaluates on
	// its telemetry tick. Nil takes DefaultSLORules; engines are only
	// built when node telemetry is enabled (TelemetryTick >= 0).
	SLORules []SLORule
	// EventMirror, when set, additionally receives every node's events
	// as human-readable lines (e.g. os.Stderr for daemon consoles).
	EventMirror io.Writer
	// EventDir, when set, persists each node's events as JSON lines
	// under EventDir/<node>.events.jsonl.
	EventDir string
	// EventsMaxBytes caps each node's JSONL event sink (live file plus
	// one rotated predecessor). Zero takes eventlog.DefaultSinkMaxBytes;
	// negative disables rotation.
	EventsMaxBytes int64
	// ArchiveDir, when set, gives every node a durable telemetry
	// archive under ArchiveDir/<node>: each sampler tick is persisted
	// to CRC-framed chunk files with downsampling tiers, served as the
	// query introspection and queried via Cluster.Query / dosasctl query.
	// Requires telemetry (TelemetryTick >= 0).
	ArchiveDir string
	// ArchiveMaxBytes is each node archive's retention budget across
	// all tiers. Zero takes tsdb.DefaultMaxBytes; negative is
	// unbounded.
	ArchiveMaxBytes int64
	// DisableTenants turns per-tenant resource attribution off on every
	// storage node: no usage table, no tenant.wait.share probe, and the
	// tenants introspection answers with an empty report. Used by the
	// attribution-overhead A/B benchmark.
	DisableTenants bool
	// TenantLimit caps each storage node's tenant table; past it the
	// least-recently-active tenant folds into the "(evicted)" aggregate
	// row (default tenant.DefaultLimit).
	TenantLimit int
	// TenantWeights are the per-tenant weighted-fair scheduling weights
	// applied on every storage node's admission gate and active queue,
	// and on the metadata server's lookup gate. A weight-2 tenant earns
	// scheduling credit twice as fast as a weight-1 tenant; absent
	// tenants weigh 1, and nil means equal weights for everyone.
	TenantWeights map[string]float64
	// QoSSlots bounds concurrently admitted requests per storage node's
	// gate (0 = pfs.DefaultQoSSlots).
	QoSSlots int
}

// Cluster is a running DOSAS deployment: one metadata server plus
// DataServers storage nodes, each running the pfs data service with an
// Active I/O Runtime attached.
type Cluster struct {
	net   transport.Network
	o     Options
	nodes []*Node // the metadata node, then the storage nodes in layout order
}

// StartCluster boots an in-process (or TCP-loopback) cluster and returns
// once every server is accepting connections.
func StartCluster(o Options) (*Cluster, error) {
	o = o.withDefaults()
	c := &Cluster{net: o.network(), o: o}
	var journal string
	if o.DataDir != "" {
		journal = filepath.Join(o.DataDir, "meta.wal")
	}
	n, err := startMeta(o, c.net, o.listenAddr("meta", 0), journal)
	if err != nil {
		return nil, err
	}
	c.nodes = append(c.nodes, n)
	for i := 0; i < o.DataServers; i++ {
		name, dir := fmt.Sprintf("data-%d", i), ""
		if o.DataDir != "" {
			dir = filepath.Join(o.DataDir, name)
		}
		n, err := startStorage(o, c.net, name, o.listenAddr(name, i+1), dir)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// listenAddr picks the bind address for a server under either transport.
// slot 0 is the metadata server; storage node i uses slot i+1.
func (o Options) listenAddr(name string, slot int) string {
	if !o.TCP {
		return name
	}
	if o.TCPBasePort > 0 {
		return fmt.Sprintf("127.0.0.1:%d", o.TCPBasePort+slot)
	}
	return "127.0.0.1:0"
}

// MetaAddr returns the metadata server's address.
func (c *Cluster) MetaAddr() string { return c.nodes[0].Addr() }

// DataAddrs returns the storage nodes' addresses in layout order.
func (c *Cluster) DataAddrs() []string {
	out := make([]string, 0, len(c.nodes)-1)
	for _, n := range c.nodes[1:] {
		out = append(out, n.Addr())
	}
	return out
}

// Connect returns a client file system bound to this cluster using the
// given scheme.
func (c *Cluster) Connect(scheme Scheme) (*FS, error) {
	return c.ConnectClient(ClientOptions{Scheme: scheme})
}

// ConnectPaced is Connect with client-side kernel pacing enabled,
// matching a cluster started with Options.Pace.
func (c *Cluster) ConnectPaced(scheme Scheme) (*FS, error) {
	return c.ConnectClient(ClientOptions{Scheme: scheme, Pace: true})
}

// ConnectClient is Connect with full client options — slow-request
// detection, flight capture, client telemetry — bound to this cluster's
// transport and addresses (o.MetaAddr and o.DataAddrs are ignored).
// Bulk transfers use the cluster's WindowDepth and TransferChunk; an unset
// TelemetryTick inherits the cluster's.
func (c *Cluster) ConnectClient(o ClientOptions) (*FS, error) {
	if o.TelemetryTick == 0 {
		o.TelemetryTick = c.o.TelemetryTick
	}
	return connect(c.net, c.MetaAddr(), c.DataAddrs(), c.o.WindowDepth, c.o.TransferChunk, o)
}

// TraceDump renders storage node i's request-lifecycle trace: one line
// per arrival, scheduling decision, kernel start, interruption,
// migration, and completion — why the node did what it did.
func (c *Cluster) TraceDump(node int) (string, error) {
	n, err := c.storageNode(node)
	if err != nil {
		return "", err
	}
	var r pfs.TraceReply
	if _, err := n.ask(pfs.KindTrace, nil, &r); err != nil {
		return "", err
	}
	var sb strings.Builder
	_, err = trace.WriteEvents(&sb, r.Events, r.Dropped)
	return sb.String(), err
}

// storageNode returns storage node i.
func (c *Cluster) storageNode(i int) (*Node, error) {
	if i < 0 || i >= len(c.nodes)-1 {
		return nil, fmt.Errorf("dosas: no storage node %d", i)
	}
	return c.nodes[1+i], nil
}

// peers asks the cluster's nodes in process. Every node answers, and
// each reply decodes as its own handler encoded it, so the accessors
// without an error result drop the sweep's: only a range query can fail
// in process, on its archive, and Query returns that.
func (c *Cluster) peers() peers {
	out := make(peers, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, peer{n.name, n.role, n.ask})
	}
	return out
}

// Close stops every node, storage nodes first, and releases their stores.
// Errors from closing are dropped (Node.Close reports them). Safe to call
// more than once.
func (c *Cluster) Close() {
	for i := len(c.nodes) - 1; i >= 0; i-- {
		_ = c.nodes[i].Close()
	}
}

// MetricsSources gathers every node's exposition inputs for the
// OpenMetrics endpoint (openmetrics.Render / openmetrics.Handler),
// metadata server first, then storage nodes in layout order.
func (c *Cluster) MetricsSources() []openmetrics.Source { return c.peers().metricsSources() }

// metricsSources asks every peer for what its exposition renders: its
// stats, telemetry, alerts, event-ring and tenant-table counts. A peer
// that cannot be asked for its stats is left out.
func (ps peers) metricsSources() []openmetrics.Source {
	out := make([]openmetrics.Source, 0, len(ps))
	for _, p := range ps {
		var st pfs.StatsReply
		if _, err := p.ask(pfs.KindStats, nil, &st); err != nil {
			continue
		}
		src := openmetrics.Source{Node: p.name, Role: p.role, Stats: &st.Stats}
		var ser pfs.SeriesReply
		if _, err := p.ask(pfs.KindSeries, nil, &ser); err == nil && ser.TickNano > 0 {
			src.Series = &ser
		}
		var alerts []Alert
		if _, err := p.ask(pfs.KindAlerts, nil, &alerts); err == nil {
			src.Alerts = alerts
		}
		var ev pfs.EventReply
		if _, err := p.ask(pfs.KindEvents, pfs.EventParams{Limit: 1}, &ev); err == nil {
			src.Events = &ev
		}
		var ten pfs.TenantReply
		if _, err := p.ask(pfs.KindTenants, nil, &ten); err == nil && ten.Usage != nil {
			src.Tenants = &ten
		}
		out = append(out, src)
	}
	return out
}

// ClientOptions configures Connect for clusters whose servers run in
// other processes (started with cmd/dosas-meta and cmd/dosas-server).
type ClientOptions struct {
	// MetaAddr is the metadata server's TCP address.
	MetaAddr string
	// DataAddrs are the storage nodes' TCP addresses, in cluster order
	// (the order servers were registered; layouts index into it).
	DataAddrs []string
	// Scheme selects TS / AS / DOSAS client behaviour.
	Scheme Scheme
	// Tenant identifies this client in per-tenant resource attribution:
	// it is stamped on every request the client issues and storage nodes
	// account bytes, ops, queue wait and kernel time against it. Empty
	// means "default".
	Tenant string
	// Pace throttles client-side kernel execution to calibrated rates.
	Pace bool
	// TelemetryTick is how often the client samples its own probes
	// (pending requests, shipped-bytes rate, bounce rate). Zero takes
	// telemetry.DefaultInterval (100 ms); negative disables client
	// telemetry.
	TelemetryTick time.Duration
	// SlowThreshold arms the slow-request flight recorder: any ReadEx
	// slower than this absolute bound captures a diagnostic bundle. Zero
	// disables the absolute criterion.
	SlowThreshold time.Duration
	// SlowFactor flags any ReadEx slower than SlowFactor× the median of
	// recent reads. Zero disables the relative criterion; with both
	// criteria zero, no bundles are ever captured.
	SlowFactor float64
	// SlowDir, when set, persists captured bundles as JSON under this
	// directory for dosasctl slow to read from another process.
	SlowDir string
	// HedgeAfter enables hedged reads on replicated files: one server's
	// share of a read still unanswered after this delay is duplicated to
	// the next-best replica and the loser is cancelled. Used as the fallback trigger
	// until the per-server latency tracker can derive a quantile-based
	// one. Zero disables hedging.
	HedgeAfter time.Duration
}

// Connect dials an externally managed cluster over TCP.
func Connect(o ClientOptions) (*FS, error) {
	return connect(transport.TCP{}, o.MetaAddr, o.DataAddrs, 0, 0, o)
}

// connect builds a client over net. window and chunk size its bulk
// transfers; zero takes the pfs defaults.
func connect(net transport.Network, metaAddr string, dataAddrs []string, window, chunk int, o ClientOptions) (*FS, error) {
	pc, err := pfs.NewClient(pfs.ClientConfig{
		Net: net, MetaAddr: metaAddr, DataAddrs: dataAddrs, WindowDepth: window, TransferChunk: chunk,
		Tenant: o.Tenant, HedgeAfter: o.HedgeAfter,
	})
	if err != nil {
		return nil, err
	}
	asc, err := core.NewClient(core.ClientConfig{
		FS: pc, Scheme: o.Scheme.core(), Pace: o.Pace, WindowDepth: window,
		Tenant:        o.Tenant,
		Telemetry:     newSampler(o.TelemetryTick),
		SlowThreshold: o.SlowThreshold,
		SlowFactor:    o.SlowFactor,
		SlowDir:       o.SlowDir,
	})
	if err != nil {
		pc.Close()
		return nil, err
	}
	return &FS{pc: pc, asc: asc, scheme: o.Scheme}, nil
}
