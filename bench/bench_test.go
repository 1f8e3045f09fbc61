package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dosas/internal/pfs"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 100}, {0.01, 10}, {0.55, 60}} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %d", got)
	}
	if supportsPercentile(999, 0.99) || !supportsPercentile(1000, 0.99) {
		t.Error("p99 needs exactly 1000 samples to leave ten beyond it")
	}
}

func TestMedianOfSlices(t *testing.T) {
	if got := median([]float64{5, 1, 9, 3, 7}); got != 5 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN, not a number that looks measured")
	}
	// One slow slice moves the spread, not the reported value.
	s := summarize("1/s", []float64{100, 102, 40, 101, 99}, 17)
	if s.Value != 100 || s.Min != 40 || s.Max != 102 || s.Samples != 17 {
		t.Errorf("summary = %+v", s)
	}
	if got := s.Spread(); math.Abs(got-0.62) > 1e-9 {
		t.Errorf("spread = %v, want 0.62", got)
	}
}

func TestWindowRatesAndLatencies(t *testing.T) {
	// Two cycles per slice; slice i completes 10·(i+1) operations.
	w := &window{streams: [][]sample{nil, nil}, refs: [][]sample{nil}}
	for slice := 0; slice < numSlices; slice++ {
		for half := 0; half < 2; half++ {
			c := uint32(len(w.cycles))
			w.cycles = append(w.cycles, cycle{slice: slice, busy: time.Second, refBusy: 500 * time.Millisecond})
			for i := 0; i < 5*(slice+1); i++ {
				w.streams[i%2] = append(w.streams[i%2], sample{lat: int64(i+1) * 1000, cycle: c, kind: uint8(i % 2)})
			}
			for i := 0; i < 10; i++ {
				w.refs[0] = append(w.refs[0], sample{lat: 500, cycle: c})
			}
		}
	}
	r := w.rate("1/s", allOps, 1)
	if want := []float64{5, 10, 15, 20, 25}; !equal(r.Slices, want) || r.Value != 15 || r.Samples != 10 {
		t.Errorf("rate = %+v, want slices %v", r, want)
	}
	if r := w.rate("1/s", kindIs(1), 2); r.Slices[0] != 4 {
		t.Errorf("weighted rate of one kind = %v, want 4 in the first slice", r.Slices)
	}
	p50, ok := w.latencyOf(w.streams, allOps, 0.5)
	if want := []float64{3, 5, 8, 10, 13}; !ok || !equal(p50.Slices, want) {
		t.Errorf("p50 = %+v, want slices %v", p50, want)
	}
	if p99, _ := w.latencyOf(w.streams, allOps, 0.99); p99.Note == "" {
		t.Error("a p99 from ten samples must carry a note")
	}
	if _, ok := w.latencyOf(w.streams, kindIs(9), 0.5); ok {
		t.Error("a kind that never ran has no latency")
	}
	out := map[string]Summary{}
	w.putRelative(out, opsVersus(allOps, allOps), opsVersus(allOps, allOps))
	// The reference does 10 exchanges per half second: 20/s.
	if want := []float64{0.25, 0.5, 0.75, 1, 1.25}; !equal(out["rel_throughput"].Slices, want) {
		t.Errorf("rel_throughput = %v, want %v", out["rel_throughput"].Slices, want)
	}
	// Each cycle of slice i holds latencies 1..5(i+1) µs; the reference's are 0.5 µs.
	if want := []float64{6, 11, 16, 21, 26}; !equal(out["rel_latency"].Slices, want) {
		t.Errorf("rel_latency = %v, want %v", out["rel_latency"].Slices, want)
	}
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}

// TestLayerTimesAddUpToRoot checks the self-time rule — a layer gets its
// spans' time minus the union of deeper spans — on spans that overlap
// each other, start before their parent and outlive the root.
func TestLayerTimesAddUpToRoot(t *testing.T) {
	root := span{Name: layerClient, Start: 0, End: 1000, Op: 1}
	spans := []span{
		// Two servers handle overlapping parts of the operation.
		{Name: layerDataSrv, Node: "data-0", Start: 100, End: 500},
		{Name: layerDataSrv, Node: "data-1", Start: 300, End: 700},
		{Name: layerStoreRead, Node: "data-0", Start: 150, End: 250},
		{Name: layerStoreRead, Node: "data-1", Start: 200, End: 350}, // starts before its handler: clipped by nothing, still store time
		{Name: layerRespWrite, Node: "data-0", Start: 500, End: 800},
		{Name: layerRespWrite, Node: "data-1", Start: 700, End: 1200}, // ends after the client returned
	}
	got := layerTimes(root, spans)
	want := map[string]int64{
		layerStoreRead: 200,        // 150..350
		layerDataSrv:   400,        // 100..700 minus 150..350
		layerRespWrite: 300,        // 700..1000 (500..700 belongs to the handler)
		layerRPC:       1000 - 900, // 0..100
		layerStoreWr:   0, layerRuntime: 0, layerMetaSrv: 0,
	}
	var sum int64
	for layer, ns := range got {
		sum += ns
		if ns != want[layer] {
			t.Errorf("%s = %d, want %d", layer, ns, want[layer])
		}
	}
	if sum != root.End-root.Start {
		t.Errorf("layers add up to %d, want the root's %d", sum, root.End-root.Start)
	}
}

func TestStoreShimKeepsRangeReader(t *testing.T) {
	tr := newTracer(nil)
	es, err := pfs.NewExtentStore(pfs.ExtentConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	shim := wrapStore(tr, "data-0", es)
	rr, ok := shim.(pfs.RangeReader)
	if !ok {
		t.Fatal("shim over the extent store hides pfs.RangeReader: bulk reads would leave the sendfile path")
	}
	if _, err := shim.WriteAt(1, bytes.Repeat([]byte{7}, 4096), 0); err != nil {
		t.Fatal(err)
	}
	p, err := rr.ReadRange(1, 0, 4096)
	if err != nil || p.Len() != 4096 {
		t.Fatalf("ReadRange through the shim: len %v, err %v", p, err)
	}
	p.Close()
	if _, ok := wrapStore(tr, "data-0", pfs.NewMemStore()).(pfs.RangeReader); ok {
		t.Error("shim over MemStore claims pfs.RangeReader, which MemStore does not implement")
	}
}

func TestJudge(t *testing.T) {
	steady := func(v float64) Summary { return summarize("x", []float64{v, v, v, v, v}, 100) }
	lower := metricDef{Name: "p50_us", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Higher: true, Bound: 0.10}
	for _, c := range []struct {
		name          string
		def           metricDef
		before, after Summary
		want          string
	}{
		{"latency within bound", lower, steady(100), steady(109), verdictOK},
		{"latency beyond bound", lower, steady(100), steady(111), verdictRegressed},
		{"latency improved", lower, steady(100), steady(50), verdictOK},
		{"throughput beyond bound", higher, steady(100), steady(89), verdictRegressed},
		{"throughput improved", higher, steady(100), steady(150), verdictOK},
		{"noisy run", lower, summarize("x", []float64{90, 100, 100, 100, 120}, 100), steady(150), verdictUnresolved},
		{"fail share rose", metricDef{Name: "fail_share"}, steady(0), steady(0.001), verdictRegressed},
		{"fail share flat", metricDef{Name: "fail_share"}, steady(0), steady(0), verdictOK},
	} {
		if _, got := judge(c.def, c.before, c.after); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops, failShare float64) string {
		rep := Report{Workloads: []*WorkloadResult{{Name: "bulk_read", EndToEnd: map[string]Summary{
			"ops_per_s":  summarize("1/s", []float64{ops, ops, ops, ops, ops}, 100),
			"fail_share": scalar("ratio", failShare),
		}}}}
		blob, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 400, 0)
	var out bytes.Buffer
	if code := compareFiles(base, write("same.json", 390, 0), &out); code != 0 {
		t.Errorf("a 2.5%% drop exits %d:\n%s", code, out.String())
	}
	if code := compareFiles(base, write("slow.json", 300, 0), &out); code != 1 {
		t.Errorf("a 25%% drop exits %d", code)
	}
	if code := compareFiles(base, write("failing.json", 400, 0.01), &out); code != 1 {
		t.Errorf("a higher fail_share exits %d", code)
	}
	if !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("output names no regression:\n%s", out.String())
	}
}

// wantEndToEnd is what each workload must report, per the README table.
var wantEndToEnd = map[string][]string{
	"bulk_read":    {"ops_per_s", "mbps", "p50_us", "p99_us"},
	"bulk_write":   {"ops_per_s", "mbps", "p50_us", "p99_us"},
	"small_ops":    {"ops_per_s", "p50_us", "p99_us", "write_p50_us", "write_p99_us", "meta_p50_us", "meta_p99_us", "create_p50_us"},
	"active_sched": {"makespan_n1_s", "makespan_n8_s", "regret_n1", "regret_n8"},
	"active_mixed": {"ops_per_s", "p50_us", "p99_us", "scan_mbps"},
}

// TestSmoke runs every workload through both passes with short slices
// and checks that every named metric is there, finite, and that nothing
// failed verification.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real clusters")
	}
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			r := &runner{seed: 1, window: time.Second, setups: 1, outDir: t.TempDir(), scratch: t.TempDir()}
			if wl.name == "active_sched" {
				r.window = 4 * time.Second // one paced round of six batches takes about 2.5 s
			}
			res, refOps, err := r.untraced(wl, r.window, true)
			if err != nil {
				t.Fatal(err)
			}
			if wl.name == "active_sched" {
				r.window = 12 * time.Second // the traced pass runs a quarter of it
			}
			if err := r.tracedPass(wl, res, refOps); err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.EndToEnd["fail_share"].Value != 0 {
				t.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
			}
			need := func(ms map[string]Summary, name string) {
				s, ok := ms[name]
				if !ok {
					t.Errorf("metric %s is missing", name)
				} else if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
					t.Errorf("metric %s = %v", name, s.Value)
				}
			}
			for _, def := range contractEndToEnd {
				need(res.EndToEnd, def.Name)
			}
			for _, name := range wantEndToEnd[wl.name] {
				need(res.EndToEnd, name)
			}
			for _, def := range append(append([]layerDef(nil), tracedMetrics...), counterDefs...) {
				need(res.PerLayer, def.Name)
				if got := res.PerLayer[def.Name].Unit; got != def.Unit {
					t.Errorf("metric %s is in %q, its definition says %q", def.Name, got, def.Unit)
				}
			}
			if got, want := res.PerLayer["dosas.client_call_us"].Value, layerSum(res.PerLayer); math.Abs(got-want) > 1e-6*want {
				t.Errorf("layers add up to %v µs per op, dosas.client_call_us is %v", want, got)
			}
			if _, err := os.Stat(filepath.Join(r.outDir, "trace-"+wl.name+".json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}

func layerSum(ms map[string]Summary) float64 {
	var sum float64
	for _, name := range []string{"pfs.rpc_self_us", "pfs.data_handle_self_us", "pfs.meta_handle_self_us",
		"pfs.store_read_us", "pfs.store_write_us", "pfs.resp_write_us", "core.runtime_self_us"} {
		sum += ms[name].Value
	}
	return sum
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the tables here:
// the driver reads the file, the program prints from the tables.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if doc.Workloads[i].Name != wl.name || doc.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, doc.Workloads[i].Name, wl.name)
		}
		if len(wl.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", wl.name, len(wl.why))
		}
	}
	if len(doc.EndToEnd) != len(contractEndToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(contractEndToEnd))
	}
	for i, def := range contractEndToEnd {
		if got := doc.EndToEnd[i]; got.Name != def.Name || got.Unit != def.Unit || got.Better != better(def.Higher) || got.Bound != def.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the program %+v", i, got, def)
		}
	}
	defs := contractPerLayer()
	if len(doc.PerLayer) != len(defs) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(defs))
	}
	for i, def := range defs {
		if got := doc.PerLayer[i]; got.Name != def.Name || got.Unit != def.Unit || got.Better != better(def.Higher) {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the program %+v", i, got, def)
		}
	}
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// TestProbes runs every layer probe briefly: each must work and report
// the unit its table entry declares.
func TestProbes(t *testing.T) {
	ps := allProbes()
	got, err := runProbes(ps, t.TempDir(), 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		s := got[p.name]
		if s.Unit != p.unit {
			t.Errorf("probe %s reports %q, its table entry says %q", p.name, s.Unit, p.unit)
		}
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || s.Value <= 0 {
			t.Errorf("probe %s = %v", p.name, s.Value)
		}
	}
}
