package dosas_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"dosas"
	"dosas/internal/pfs"
	"dosas/internal/transport"
	"dosas/internal/workload"
)

func TestClusterDefaults(t *testing.T) {
	c := startCluster(t, dosas.Options{})
	if got := len(c.DataAddrs()); got != 4 {
		t.Fatalf("default data servers = %d, want 4", got)
	}
	if c.MetaAddr() == "" {
		t.Fatal("no metadata address")
	}
}

func TestClusterCloseIsIdempotent(t *testing.T) {
	c, err := dosas.StartCluster(dosas.Options{DataServers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // must not panic or hang
}

func TestClusterTCPBasePort(t *testing.T) {
	c, err := dosas.StartCluster(dosas.Options{DataServers: 2, TCP: true, TCPBasePort: 39100})
	if err != nil {
		t.Skipf("port range busy: %v", err)
	}
	defer c.Close()
	if c.MetaAddr() != "127.0.0.1:39100" {
		t.Errorf("meta addr = %s", c.MetaAddr())
	}
	addrs := c.DataAddrs()
	if addrs[0] != "127.0.0.1:39101" || addrs[1] != "127.0.0.1:39102" {
		t.Errorf("data addrs = %v", addrs)
	}
}

func TestClusterShapedAndPaced(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// A 2 MB transfer through a 10 MB/s shaped link takes ≥ ~0.2 s.
	c := startCluster(t, dosas.Options{DataServers: 1, LinkRate: 10e6})
	fs := connect(t, c, dosas.TS)
	f, err := fs.Create("shaped/x", dosas.CreateOptions{Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := workload.RandomBytes(2<<20, 1)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	buf := make([]byte, len(data))
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 120*time.Millisecond {
		t.Errorf("2 MB through a 10 MB/s link took only %v", elapsed)
	}
}

func TestSchemeAndPolicyStrings(t *testing.T) {
	if dosas.DOSAS.String() != "DOSAS" || dosas.AS.String() != "AS" || dosas.TS.String() != "TS" {
		t.Error("scheme names wrong")
	}
}

func TestTraceDumpMentionsOps(t *testing.T) {
	c := startCluster(t, dosas.Options{DataServers: 1})
	fs := connect(t, c, dosas.AS)
	f, _ := fs.Create("td/x", dosas.CreateOptions{Width: 1})
	f.WriteAt([]byte("xyz"), 0)
	f.ReadEx("histogram", nil, 0, 3)
	dump, err := c.TraceDump(0)
	if err != nil || !strings.Contains(dump, "op=histogram") {
		t.Fatalf("dump = %q, %v", dump, err)
	}
}

// A StartCluster that fails inside a storage node — here the runtime
// refuses a negative network bandwidth, after the node's data server and
// its admission gate are built — closes everything it built.
func TestStartClusterFailureLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		c, err := dosas.StartCluster(dosas.Options{DataServers: 2, NetworkBandwidth: -1, TelemetryTick: -1})
		if err == nil {
			c.Close()
			t.Fatal("StartCluster accepted NetworkBandwidth = -1")
		}
	}
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("goroutines %d -> %d after 5 failed starts", before, after)
	}
}

// Every Cluster accessor answers from the introspection kind table the
// wire serves, so on one cluster it agrees with its FS counterpart.
// Answers that move with the sampler tick are compared until they agree.
func TestClusterAccessorsMatchFS(t *testing.T) {
	start := time.Now()
	c := startCluster(t, dosas.Options{
		DataServers: 2, TCP: true, TelemetryTick: 2 * time.Millisecond, ArchiveDir: t.TempDir(),
	})
	fs, err := c.ConnectClient(dosas.ClientOptions{Scheme: dosas.DOSAS, Tenant: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Close)
	f := writeTestFile(t, fs, "parity/data", 512<<10)
	if _, err := f.ReadEx("sum8", nil, 0, f.Size()); err != nil {
		t.Fatal(err)
	}
	waitArchived(t, c, "queue.depth", 3, "data-0", "data-1")
	cut := time.Now()

	pool := pfs.NewPool(transport.TCP{})
	defer pool.Close()
	var wireStats []string
	for _, addr := range append([]string{c.MetaAddr()}, c.DataAddrs()...) {
		var sr pfs.StatsReply
		node, err := pfs.Introspect(pool, addr, pfs.KindStats, nil, &sr)
		if err != nil {
			t.Fatal(err)
		}
		wireStats = append(wireStats, node)
	}
	var localStats []string
	for node := range c.Stats() {
		localStats = append(localStats, node)
	}
	sort.Strings(wireStats)
	sort.Strings(localStats)
	if !reflect.DeepEqual(localStats, wireStats) || len(localStats) != 3 {
		t.Errorf("Stats nodes = %v, the wire answers as %v", localStats, wireStats)
	}

	must := func(v any, err error) any {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	health := func(reps []dosas.HealthReport) (out []string) {
		for _, r := range reps {
			out = append(out, fmt.Sprint(r.Node, r.Role, r.Ready))
			for _, ch := range r.Checks {
				out = append(out, fmt.Sprint(r.Node, ch.Name, ch.OK))
			}
		}
		return out
	}
	seriesNames := func(m map[string][]dosas.Series) map[string][]string {
		out := make(map[string][]string)
		for node, ss := range m {
			for _, s := range ss {
				out[node] = append(out[node], s.Name)
			}
		}
		return out
	}
	alerts := func(as []dosas.Alert) (out []string) {
		for _, a := range as {
			out = append(out, fmt.Sprint(a.Node, a.Rule, a.State))
		}
		return out
	}
	// An alert's value and detail move with every evaluation; the rest of
	// a report is fixed by its window.
	stable := func(r dosas.IncidentReport) dosas.IncidentReport {
		for i := range r.Alerts {
			r.Alerts[i].Value, r.Alerts[i].Detail = 0, ""
		}
		return r
	}
	fsEvents := func() []dosas.Event {
		pages := must(fs.Events(nil, dosas.EventDebug, 0)).([]dosas.EventsPage)
		var sets [][]dosas.Event
		for _, p := range pages {
			sets = append(sets, p.Events)
		}
		return dosas.MergeEvents(sets...)
	}
	fsDecisions := func() []dosas.DecisionRecord {
		records, _, err := fs.DecisionLog(0, 0)
		return must(records, err).([]dosas.DecisionRecord)
	}
	window := dosas.RangeQuery{Name: "queue.depth", Until: cut}
	oneNode := dosas.RangeQuery{Name: "queue.depth", Until: cut, Node: "data-1", Step: 10 * time.Millisecond}
	merged := dosas.RangeQuery{Name: "queue.depth", Until: cut, Agg: "max"}
	report := dosas.ReportOptions{Since: start, Until: cut, Now: cut, Series: []string{"queue.depth", "bounce.rate"}}

	for _, tc := range []struct {
		name          string
		cluster, wire func() any
	}{
		{"Health", func() any { return health(c.Health()) }, func() any { return health(fs.Health()) }},
		{"Series", func() any { return seriesNames(c.Series(0)) }, func() any { return seriesNames(must(fs.Series(0)).(map[string][]dosas.Series)) }},
		{"Events", func() any { return c.Events(dosas.EventDebug, 0) }, func() any { return fsEvents() }},
		{"Alerts", func() any { return alerts(c.Alerts()) }, func() any { return alerts(must(fs.Alerts()).([]dosas.Alert)) }},
		{"Tenants", func() any { return c.Tenants() }, func() any { return must(fs.Tenants()) }},
		{"DecisionLogAll", func() any { return c.DecisionLogAll() }, func() any { return fsDecisions() }},
		{"Query", func() any { return must(c.Query(window)) }, func() any { return must(fs.Query(window)) }},
		{"QueryNode", func() any { return must(c.Query(oneNode)) }, func() any { return must(fs.Query(oneNode)) }},
		{"QueryAgg", func() any { return must(c.Query(merged)) }, func() any { return must(fs.Query(merged)) }},
		{"Report", func() any { return stable(must(c.Report(report)).(dosas.IncidentReport)) },
			func() any { return stable(must(fs.Report(report)).(dosas.IncidentReport)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var local, remote any
			for deadline := time.Now().Add(2 * time.Second); ; {
				local, remote = tc.cluster(), tc.wire()
				if reflect.DeepEqual(local, remote) || time.Now().After(deadline) {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if !reflect.DeepEqual(local, remote) {
				t.Fatalf("Cluster answers\n%+v\nFS answers\n%+v", local, remote)
			}
		})
	}

	// The comparisons above must not agree vacuously.
	if len(c.Tenants()) != 2 || len(c.DecisionLogAll()) == 0 || len(c.Events(dosas.EventDebug, 0)) == 0 {
		t.Fatalf("tenants %d, decisions %d, events %d: the traffic left no trace",
			len(c.Tenants()), len(c.DecisionLogAll()), len(c.Events(dosas.EventDebug, 0)))
	}
	q := must(c.Query(oneNode)).(dosas.QueryResult)
	if len(q.Nodes) != 1 || q.Nodes[0].Node != "data-1" || len(q.Nodes[0].Points) == 0 {
		t.Fatalf("node-filtered query = %+v", q)
	}
}
