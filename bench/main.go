// Command bench is the repository's benchmark: five named workloads
// driven through the public dosas API against real servers on TCP
// loopback, reporting end-to-end metrics from an untraced pass and
// per-layer metrics from a traced pass, counters and direct layer probes.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all five)")
		seed    = flag.Int64("seed", 2012, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "length of the timed window, cut into 5 slices; warm-up, traced pass and probes scale with it")
		trace   = flag.Int("trace", -1, "with -workload: 0 prints the end-to-end metrics as one JSON line, 1 the per-layer metrics; -1 runs the full suite")
		compare = flag.Bool("compare", false, "compare two BENCH.json files: -compare old.json new.json")
		outDir  = flag.String("out", "bench/out", "directory for BENCH.json and trace files")
		scratch = flag.String("scratch", ".bench_build/tmp", "directory for cluster data; removed after each workload")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare old.json new.json"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	for _, dir := range []string{*outDir, *scratch} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
	}
	r := &runner{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), setups: 3, outDir: *outDir, scratch: *scratch}

	wls := workloads
	if *name != "" || *trace >= 0 {
		wl, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		wls = []workload{wl}
	}
	if *trace >= 0 {
		os.Exit(r.contract(wls[0], *trace == 1))
	}
	os.Exit(r.suite(wls))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runner holds one invocation's settings.
type runner struct {
	seed   int64
	window time.Duration
	// setups is how many times a workload is set up per run; setup_s is
	// the median.
	setups  int
	outDir  string
	scratch string
}

// Durations derived from the window, so a shorter run shortens every
// phase in proportion and the slice count stays at five.
func warmupFor(window time.Duration) time.Duration { return window * 3 / 20 }
func (r *runner) traced() time.Duration            { return r.window / 4 }

// WorkloadResult is everything measured for one workload.
type WorkloadResult struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	EndToEnd  map[string]Summary `json:"end_to_end"`
	PerLayer  map[string]Summary `json:"per_layer,omitempty"`
}

// Report is the BENCH.json document.
type Report struct {
	Env       Env                `json:"env"`
	Workloads []*WorkloadResult  `json:"workloads"`
	Probes    map[string]Summary `json:"probes,omitempty"`
}

// untraced runs the workload's end-to-end pass: set-up, warm-up with
// every operation verified, the timed window, then re-reading what was
// written and waiting for the cluster to drain. With layers set it also
// fills the counter-based per-layer metrics and returns the untraced
// throughput of the traced pass's load shape, for trace.e2e_ratio.
func (r *runner) untraced(wl workload, window time.Duration, layers bool) (res *WorkloadResult, refOps float64, err error) {
	inst, setup, err := setUp(wl, r.seed, r.scratch, nil, r.setups)
	if err != nil {
		return nil, 0, err
	}
	defer inst.close()
	res = &WorkloadResult{Name: wl.name, Why: wl.why}
	streams, refs := inst.streams(wl.clients), inst.reference(wl.clients)
	warm := drive(streams, refs, warmupFor(window), true, nil)

	before := readCounters(inst.clusters())
	win := drive(streams, refs, window, false, nil)
	after := readCounters(inst.clusters())

	res.EndToEnd = inst.report(win)
	res.EndToEnd["setup_s"] = setup
	refOps = res.EndToEnd["ops_per_s"].Value
	if layers {
		res.PerLayer = counterMetrics(before, after, win)
		// The traced pass runs tracedClients clients back to back; unless
		// the window above did too, measure what that shape does untraced.
		if wl.tracedClients != wl.clients || len(refs) > 0 {
			ref := drive(inst.streams(wl.tracedClients), nil, r.traced(), false, nil)
			refOps = inst.report(ref)["ops_per_s"].Value
			warm.attempts += ref.attempts
			warm.failed += ref.failed
		}
	}
	checked, bad := inst.verify()
	stuck := drained(inst.clusters())
	res.count(warm.attempts+win.attempts+checked, warm.failed+win.failed+bad+stuck)
	return res, refOps, nil
}

// count adds attempted and failed operations to the result and brings
// fail_share up to date.
func (res *WorkloadResult) count(attempted, failed int64) {
	res.Attempted += attempted
	res.Failed += failed
	res.EndToEnd["fail_share"] = scalar("ratio", float64(res.Failed)/float64(res.Attempted))
}

// tracedPass runs the workload on the shim assembly with tracing on and
// adds the span-derived per-layer metrics to res. refOps is the untraced
// throughput at the same client count.
func (r *runner) tracedPass(wl workload, res *WorkloadResult, refOps float64) error {
	tr := newTracer(wl.tenants)
	inst, _, err := setUp(wl, r.seed, r.scratch, tr, 1)
	if err != nil {
		return err
	}
	defer inst.close()
	streams := inst.streams(wl.tracedClients)
	warm := drive(streams, nil, r.traced()/4, true, nil)
	tr.on.Store(true)
	win := drive(streams, nil, r.traced(), false, tr.root)
	tr.on.Store(false)
	res.count(warm.attempts+win.attempts, warm.failed+win.failed+drained(inst.clusters()))

	ops, totals := tr.layerTotals()
	if ops == 0 {
		return fmt.Errorf("%s: traced pass completed no operation", wl.name)
	}
	perOp := func(layer string) Summary { return scalar("us", float64(totals[layer])/float64(ops)/1e3) }
	res.PerLayer["dosas.client_call_us"] = perOp(layerClient)
	res.PerLayer["pfs.rpc_self_us"] = perOp(layerRPC)
	res.PerLayer["pfs.data_handle_self_us"] = perOp(layerDataSrv)
	res.PerLayer["pfs.meta_handle_self_us"] = perOp(layerMetaSrv)
	res.PerLayer["pfs.store_read_us"] = perOp(layerStoreRead)
	res.PerLayer["pfs.store_write_us"] = perOp(layerStoreWr)
	res.PerLayer["pfs.resp_write_us"] = perOp(layerRespWrite)
	res.PerLayer["core.runtime_self_us"] = perOp(layerRuntime)
	res.PerLayer["trace.rpc_share"] = scalar("ratio", float64(totals[layerRPC])/float64(totals[layerClient]))
	res.PerLayer["trace.e2e_ratio"] = scalar("ratio", inst.report(win)["ops_per_s"].Value/refOps)
	res.PerLayer["trace.ops"] = scalar("count", float64(ops))

	// The shims must not have pushed bulk reads off the zero-copy path.
	if wl.name == "bulk_read" {
		var sent int64
		for _, snap := range inst.clusters()[0].stats() {
			sent += snap.Counter("wire.sendfile_bytes")
		}
		if sent == 0 {
			res.count(0, 1)
			fmt.Fprintln(os.Stderr, "bench: bulk_read traced pass moved no bytes by sendfile: the store shim hides pfs.RangeReader")
		}
	}
	return tr.writeFile(filepath.Join(r.outDir, "trace-"+wl.name+".json"))
}

// contract runs one workload the way the benchmark driver asks for it and
// prints one JSON object as the last line of standard output: the gated
// end-to-end metrics, or with layers set the per-layer metrics, measured
// in a third of the window each for the counters, the traced pass's
// reference and the traced pass, and a sixtieth per probe.
func (r *runner) contract(wl workload, layers bool) int {
	metrics := make(map[string]Summary)
	var res *WorkloadResult
	var err error
	if !layers {
		if res, _, err = r.untraced(wl, r.window, false); err != nil {
			fatal(err)
		}
		for _, def := range contractEndToEnd {
			metrics[def.Name] = res.EndToEnd[def.Name]
		}
	} else {
		var refOps float64
		if res, refOps, err = r.untraced(wl, r.window/3, true); err != nil {
			fatal(err)
		}
		if err = r.tracedPass(wl, res, refOps); err != nil {
			fatal(err)
		}
		probes, err := runProbes(contractProbes, r.scratch, r.window/60)
		if err != nil {
			fatal(err)
		}
		for _, def := range contractPerLayer() {
			// Not measured on this workload (no writes, no metadata
			// operations) reads 0: the driver wants every name on every one.
			metrics[def.Name] = scalar(def.Unit, 0)
			for _, measured := range []map[string]Summary{probes, res.EndToEnd, res.PerLayer} {
				if s, ok := measured[def.Name]; ok {
					metrics[def.Name] = s
				}
			}
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]value)}
	for name, s := range metrics {
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			fatal(fmt.Errorf("%s: metric %s was not measured", wl.name, name))
		}
		out.Metrics[name] = value{Value: s.Value, Unit: s.Unit}
	}
	blob, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	// The line carries the verdict ("correct"), so a run that measured
	// and printed exits 0 even when verification failed.
	fmt.Println(string(blob))
	return 0
}

// suite runs every given workload through both passes and the layer
// probes, prints every metric by name, and writes BENCH.json.
func (r *runner) suite(wls []workload) int {
	rep := &Report{Env: readEnv(r)}
	printEnv(os.Stdout, rep.Env)
	failed := false
	for _, wl := range wls {
		res, refOps, err := r.untraced(wl, r.window, true)
		if err != nil {
			fatal(err)
		}
		if err := r.tracedPass(wl, res, refOps); err != nil {
			fatal(err)
		}
		rep.Workloads = append(rep.Workloads, res)
		printWorkload(os.Stdout, res)
		failed = failed || res.Failed != 0
	}
	probes, err := runProbes(allProbes(), r.scratch, time.Second)
	if err != nil {
		fatal(err)
	}
	rep.Probes = probes
	printMetrics(os.Stdout, "layer probes", probes)
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(r.outDir, "BENCH.json")
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("\nwrote %s\n", path)
	if failed {
		fmt.Println("FAILED: some operations failed verification (fail_share > 0)")
		return 1
	}
	return 0
}
