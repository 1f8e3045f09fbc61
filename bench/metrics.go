package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef is one gated end-to-end metric: -compare fails a run whose
// median-of-slices value is worse than the old run's by more than Bound
// (relative), and calls the metric unresolved when either run's own
// slices spread wider than Bound.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool // higher is better
	Bound  float64
}

// endToEnd lists the suite's end-to-end metrics. Not every workload
// reports every metric; see README.md for which reports what.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"rel_throughput", "ratio", true, 0.25},
	{"rel_latency", "ratio", false, 0.25},
	{"ops_per_s", "1/s", true, 0.10},
	{"mbps", "MB/s", true, 0.10},
	{"p50_us", "us", false, 0.10},
	{"p99_us", "us", false, 0.10},
	{"write_p50_us", "us", false, 0.10},
	{"write_p99_us", "us", false, 0.10},
	{"meta_p50_us", "us", false, 0.10},
	{"meta_p99_us", "us", false, 0.10},
	{"create_p50_us", "us", false, 0.10},
	{"scan_mbps", "MB/s", true, 0.10},
	{"makespan_n1_s", "s", false, 0.10},
	{"makespan_n8_s", "s", false, 0.10},
	{"regret_n1", "ratio", false, 0.10},
	{"regret_n8", "ratio", false, 0.10},
	{"fail_share", "ratio", false, 0}, // any increase fails
}

// contractEndToEnd is what the benchmark driver gates (BENCHMARK.json
// end_to_end): set-up time and the two metrics every workload measures
// against a reference in the same run, which is what makes them repeat
// on a shared host.
var contractEndToEnd = endToEnd[:3]

// reportOnly are the absolute end-to-end metrics. Not every workload has
// every one, and on a shared host they do not repeat within their
// bounds, so the driver sees them ungated among the per-layer metrics;
// -compare still judges them, and calls them unresolved when a run's own
// slices disagree by more than the bound.
var reportOnly = endToEnd[3 : len(endToEnd)-1]

// layerDef is one ungated metric as BENCHMARK.json's per_layer lists it.
type layerDef struct {
	Name   string
	Unit   string
	Higher bool // higher is better
}

// contractPerLayer lists BENCHMARK.json's per_layer metrics in order: the
// report-only end-to-end metrics, the traced-pass rows, the counters and
// the probes a driver run has time for.
func contractPerLayer() []layerDef {
	var out []layerDef
	for _, d := range reportOnly {
		out = append(out, layerDef{d.Name, d.Unit, d.Higher})
	}
	out = append(out, tracedMetrics...)
	out = append(out, counterDefs...)
	for _, p := range contractProbes {
		out = append(out, layerDef{p.name, p.unit, p.unit == "MB/s"})
	}
	return out
}

// tracedMetrics are the rows of the traced pass, µs per operation unless
// a ratio.
var tracedMetrics = []layerDef{
	{"dosas.client_call_us", "us", false},
	{"pfs.rpc_self_us", "us", false},
	{"pfs.data_handle_self_us", "us", false},
	{"pfs.meta_handle_self_us", "us", false},
	{"pfs.store_read_us", "us", false},
	{"pfs.store_write_us", "us", false},
	{"pfs.resp_write_us", "us", false},
	{"core.runtime_self_us", "us", false},
	{"trace.rpc_share", "ratio", false},
	{"trace.e2e_ratio", "ratio", true},
}

// counterDefs are the counter-derived metrics of counterMetrics.
var counterDefs = []layerDef{
	{"wire.copied_bytes_per_byte", "ratio", false},
	{"wire.sendfile_bytes_per_byte", "ratio", true},
	{"wire.writev_calls_per_op", "1/op", false},
	{"pfs.gate_wait_us_per_op", "us", false},
	{"core.bounce_rate", "ratio", false},
	{"core.interrupt_rate", "ratio", false},
	{"core.migrated_per_req", "ratio", false},
	{"core.estimator_err_pct", "%", false},
	{"proc.cpu_us_per_op", "us", false},
	{"proc.alloc_bytes_per_op", "B/op", false},
	{"proc.allocs_per_op", "1/op", false},
	{"proc.gc_pause_us_per_s", "us/s", false},
	{"proc.peak_rss_mb", "MB", false},
}

// printMetrics prints one block of metrics sorted by name: value, unit,
// spread across slices (min..max) and the smallest slice's sample count.
func printMetrics(w io.Writer, title string, ms map[string]Summary) {
	fmt.Fprintf(w, "\n%s\n", title)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := ms[n]
		fmt.Fprintf(w, "  %-30s %14.4f %-6s", n, s.Value, s.Unit)
		if len(s.Slices) > 0 {
			fmt.Fprintf(w, " spread %.4g..%.4g (%.1f%%) n=%d", s.Min, s.Max, 100*s.Spread(), s.Samples)
		}
		if s.Note != "" {
			fmt.Fprintf(w, " [%s]", s.Note)
		}
		fmt.Fprintln(w)
	}
}

func printWorkload(w io.Writer, res *WorkloadResult) {
	fmt.Fprintf(w, "\n== %s ==  %s\n", res.Name, res.Why)
	fmt.Fprintf(w, "attempted %d, failed %d\n", res.Attempted, res.Failed)
	printMetrics(w, "end to end (untraced pass; median of 5 slices)", res.EndToEnd)
	printMetrics(w, "per layer (traced pass and counters)", res.PerLayer)
}
