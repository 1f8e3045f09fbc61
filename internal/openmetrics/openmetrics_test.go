package openmetrics

import (
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dosas/internal/eventlog"
	"dosas/internal/metrics"
	"dosas/internal/pfs"
	"dosas/internal/slo"
	"dosas/internal/telemetry"
	"dosas/internal/tenant"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildSources assembles a fully deterministic two-node exposition
// input: fixed clocks, fixed metric values, and an SLO engine driven to
// a firing state.
func buildSources(t *testing.T) []Source {
	t.Helper()
	now := time.Unix(1000, 0)
	clock := func() time.Time { now = now.Add(100 * time.Millisecond); return now }

	reg := metrics.NewRegistry()
	reg.Counter("active.arrivals").Add(42)
	reg.Counter("active.rejected").Add(3)
	reg.Gauge("data.inflight").Set(2)
	reg.Gauge("slo.firing").Set(1) // what an engine given this registry keeps
	h := reg.Histogram("est.kernel_error_pct")
	for _, v := range []float64{1, 2, 4, 8} {
		h.Observe(v)
	}

	s := telemetry.NewSampler(telemetry.Config{Capacity: 8, Now: clock})
	depth := 0.0
	s.Register("queue.depth", func() float64 { depth += 10; return depth })
	s.Register("bounce.rate", func() float64 { return 0.25 })
	for i := 0; i < 3; i++ {
		s.Tick()
	}

	engine, err := slo.NewEngine(slo.Config{
		Rules: []slo.Rule{
			{Name: "queue-sat", Series: "queue.depth", Kind: slo.KindThreshold,
				Threshold: 5, Window: slo.Duration(10 * time.Second), Severity: "page"},
			{Name: "idle-rule", Series: "no.series", Kind: slo.KindThreshold, Threshold: 1},
		},
		Sampler: s, Node: "data-0", Now: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.Eval() // queue-sat fires (For=0), idle-rule abstains

	ev, err := eventlog.New(eventlog.Config{Capacity: 2, Now: clock, Node: "data-0"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ev.Info("test", "event") // 3 overwrites
	}

	metaReg := metrics.NewRegistry()
	metaReg.Counter("meta.opens").Add(7)
	metaReg.Counter("meta.journal.records").Add(2048)
	metaReg.Counter("meta.journal.syncs").Add(512)
	metaReg.Counter("meta.journal.sync_us").Add(98304)

	// Tenant table with hostile names: label values containing every
	// character the exposition format escapes, plus enough tenants to
	// trigger one eviction (limit 3 keeps app-a, app-b, and the dirty
	// name; "victim" folds into the (evicted) row).
	tab := tenant.NewTable(3)
	tab.Account("victim", func(st *tenant.Stats) { st.ReadOps = 1; st.BytesRead = 512 })
	tab.Account("app-a", func(st *tenant.Stats) {
		st.BytesRead = 4096
		st.ReadOps = 4
		st.ActiveOps = 2
		st.KernelNanos = 1500000
		st.QueueWaitNanos = 250000
		st.Inflight = 1
	})
	tab.Account("app-b", func(st *tenant.Stats) { st.WriteOps = 3; st.BytesWritten = 9000; st.Bounces = 1 })
	tab.Account("we\"ird\\te\nnant", func(st *tenant.Stats) { st.TruncOps = 2 })

	snap, metaSnap := reg.Snapshot(), metaReg.Snapshot()
	return []Source{
		{
			Node: "data-0", Role: "data", Stats: &snap,
			Series:  &pfs.SeriesReply{Series: s.Snapshot(0), Dropped: s.Dropped()},
			Alerts:  engine.Alerts(),
			Events:  &pfs.EventReply{Dropped: ev.Dropped()},
			Tenants: &pfs.TenantReply{Usage: tab.Snapshot(), Evicted: tab.Evictions()},
		},
		{Node: "meta", Role: "meta", Stats: &metaSnap},
	}
}

func TestRenderGolden(t *testing.T) {
	var b strings.Builder
	if err := Render(&b, buildSources(t)); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("rendering drifted from golden (run with -update if intended):\n got:\n%s\nwant:\n%s", got, want)
	}
	// Determinism: a second render is byte-identical.
	var b2 strings.Builder
	if err := Render(&b2, buildSources(t)); err != nil {
		t.Fatal(err)
	}
	if b2.String() != got {
		t.Error("two renders of identical state differ")
	}
}

// TestRenderIsValidOpenMetrics checks the structural rules a scraper
// relies on: one TYPE per family, every sample belongs to a declared
// family with legal suffix and sorted placement, labels are well formed,
// and the exposition ends with # EOF.
func TestRenderIsValidOpenMetrics(t *testing.T) {
	var b strings.Builder
	if err := Render(&b, buildSources(t)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(b.String(), "\n")
	if len(lines) < 2 || lines[len(lines)-1] != "" || lines[len(lines)-2] != "# EOF" {
		t.Fatal("exposition must end with a final \"# EOF\" line")
	}
	types := map[string]string{}
	samples := map[string]bool{} // name{labels}: OpenMetrics forbids a repeat
	current := ""
	for _, line := range lines[:len(lines)-2] {
		if line == "" {
			t.Fatal("blank line inside exposition")
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("bad TYPE line %q", line)
			}
			name, typ := parts[2], parts[3]
			if _, dup := types[name]; dup {
				t.Fatalf("family %s declared twice", name)
			}
			if typ != "counter" && typ != "gauge" && typ != "summary" {
				t.Fatalf("family %s has unknown type %q", name, typ)
			}
			if name <= current {
				t.Fatalf("families not sorted: %s after %s", name, current)
			}
			types[name], current = typ, name
			continue
		}
		// Sample line: name{labels} value
		brace := strings.IndexByte(line, '{')
		sp := strings.LastIndexByte(line, ' ')
		if brace < 0 || sp < brace {
			t.Fatalf("unparseable sample %q", line)
		}
		if samples[line[:sp]] {
			t.Fatalf("sample %s repeated", line[:sp])
		}
		samples[line[:sp]] = true
		name := line[:brace]
		base := name
		for _, suffix := range []string{"_total", "_sum", "_count"} {
			if s := strings.TrimSuffix(name, suffix); s != name && types[s] != "" {
				base = s
			}
		}
		typ, ok := types[base]
		if !ok {
			t.Fatalf("sample %q has no TYPE declaration", line)
		}
		if base != current {
			t.Fatalf("sample %q outside its family block (current %s)", line, current)
		}
		if typ == "counter" && !strings.HasSuffix(name, "_total") {
			t.Fatalf("counter sample %q must use _total", line)
		}
		labelPart := line[brace:sp]
		if !strings.HasPrefix(labelPart, "{") || !strings.HasSuffix(labelPart, "}") {
			t.Fatalf("bad labels in %q", line)
		}
		if !strings.Contains(labelPart, `node="`) || !strings.Contains(labelPart, `role="`) {
			t.Fatalf("sample %q missing node/role labels", line)
		}
		var f float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &f); err != nil {
			t.Fatalf("sample %q has non-numeric value: %v", line, err)
		}
	}
	// Telemetry gauges present with node labels (acceptance criterion).
	out := b.String()
	if !strings.Contains(out, `dosas_telemetry{node="data-0",role="data",series="queue.depth"}`) {
		t.Error("telemetry series gauge with node label missing")
	}
	if !strings.Contains(out, `dosas_slo_alert{node="data-0",role="data",rule="queue-sat",severity="page"} 2`) {
		t.Error("firing slo alert gauge missing")
	}
	if !strings.Contains(out, `dosas_events_dropped_total{node="data-0",role="data"} 3`) {
		t.Error("event drop counter missing")
	}
	// Tenant usage family: resource-labelled samples, with hostile tenant
	// names escaped per the exposition spec.
	if !strings.Contains(out, `dosas_tenant{node="data-0",role="data",tenant="app-a",resource="bytes_read"} 4096`) {
		t.Error("tenant bytes_read sample missing")
	}
	if !strings.Contains(out, `dosas_tenant{node="data-0",role="data",tenant="we\"ird\\te\nnant",resource="trunc_ops"} 2`) {
		t.Error("escaped dirty tenant name sample missing")
	}
	if !strings.Contains(out, `tenant="(evicted)"`) {
		t.Error("evicted fold row missing from tenant family")
	}
	if !strings.Contains(out, `dosas_tenant_evicted_total{node="data-0",role="data"} 1`) {
		t.Error("tenant eviction counter missing")
	}
}

func TestHandler(t *testing.T) {
	srv := httptest.NewServer(Handler(func() []Source { return buildSources(t) }))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(body), "# EOF\n") {
		t.Error("served exposition missing # EOF terminator")
	}
}

func TestMetricName(t *testing.T) {
	cases := map[string]string{
		"active.arrivals":  "dosas_active_arrivals",
		"est-error":        "dosas_est_error",
		"rpc.frames_total": "dosas_rpc_frames_total",
	}
	for in, want := range cases {
		if got := metricName(in); got != want {
			t.Errorf("metricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEscapeLabel(t *testing.T) {
	if got := escapeLabel("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Errorf("escapeLabel = %q", got)
	}
}
