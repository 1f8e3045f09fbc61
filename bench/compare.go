package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of -compare for one workload × end-to-end metric.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares one metric between two runs. delta is the relative
// change in the direction that is worse (positive = worse). A metric is
// unresolved, not ok, when either run's own slices spread wider than the
// bound or a tail percentile had too few samples: the runs cannot tell a
// change of that size from noise.
func judge(def metricDef, before, after Summary) (delta float64, verdict string) {
	if before.Value != 0 {
		delta = (after.Value - before.Value) / before.Value
	} else if after.Value != 0 {
		delta = 1
	}
	if def.Higher {
		delta = -delta
	}
	switch {
	case def.Bound == 0 && delta > 0: // fail_share: any increase
		return delta, verdictRegressed
	case def.Bound == 0:
		return delta, verdictOK
	case before.Spread() > def.Bound || after.Spread() > def.Bound || before.Note != "" || after.Note != "":
		return delta, verdictUnresolved
	case delta > def.Bound:
		return delta, verdictRegressed
	}
	return delta, verdictOK
}

func readReport(path string) (*Report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareFiles prints, per workload × end-to-end metric, the change from
// the old BENCH.json to the new one with its bound and verdict, and
// returns the exit code: 1 when anything regressed (a higher fail_share
// included), 2 when a file cannot be read.
func compareFiles(oldPath, newPath string, w io.Writer) int {
	before, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	after, err := readReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	for _, diff := range envDiffs(before.Env, after.Env) {
		fmt.Fprintln(w, "warning: runs are not comparable:", diff)
	}
	regressed := false
	for _, b := range before.Workloads {
		var a *WorkloadResult
		for _, cand := range after.Workloads {
			if cand.Name == b.Name {
				a = cand
			}
		}
		if a == nil {
			fmt.Fprintf(w, "\n%s: missing from %s\n", b.Name, newPath)
			regressed = true
			continue
		}
		fmt.Fprintf(w, "\n%s\n  %-16s %14s %14s %9s %7s  %s\n", b.Name, "metric", "old", "new", "worse by", "bound", "verdict")
		for _, def := range endToEnd {
			bs, inOld := b.EndToEnd[def.Name]
			as, inNew := a.EndToEnd[def.Name]
			if !inOld && !inNew {
				continue
			}
			if inOld != inNew {
				fmt.Fprintf(w, "  %-16s reported by only one of the runs: %s\n", def.Name, verdictRegressed)
				regressed = true
				continue
			}
			delta, verdict := judge(def, bs, as)
			regressed = regressed || verdict == verdictRegressed
			fmt.Fprintf(w, "  %-16s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n", def.Name, bs.Value, as.Value, 100*delta, 100*def.Bound, verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// envDiffs lists the environment fields that make two runs' numbers not
// comparable.
func envDiffs(a, b Env) []string {
	var out []string
	diff := func(what string, x, y any) {
		if x != y {
			out = append(out, fmt.Sprintf("%s %v vs %v", what, x, y))
		}
	}
	diff("nproc", a.NumCPU, b.NumCPU)
	diff("GOMAXPROCS", a.GOMAXPROCS, b.GOMAXPROCS)
	diff("go version", a.GoVersion, b.GoVersion)
	diff("kernel", a.Kernel, b.Kernel)
	diff("data-dir filesystem", a.DataDirFS, b.DataDirFS)
	diff("window seconds", a.WindowSeconds, b.WindowSeconds)
	diff("store flush policy", a.FlushPolicy, b.FlushPolicy)
	return out
}
