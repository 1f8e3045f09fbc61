// Command dosas-bench regenerates every table and figure of the DOSAS
// paper's evaluation (CLUSTER 2012, Section IV).
//
// Usage:
//
//	dosas-bench [-exp all] [-seed 2012] [-runs 10]
//
// Experiments (-exp):
//
//	table3    kernel processing rates (paper Table III)
//	fig2      Gaussian TS vs AS, 128 MB/req (Figures 2 and 4)
//	fig5      Gaussian TS vs AS, 512 MB/req
//	fig6      SUM TS vs AS, 128 MB/req
//	table4    scheduling-algorithm accuracy over all situations
//	fig7      DOSAS vs AS vs TS, 128 MB/req
//	fig8      DOSAS vs AS vs TS, 256 MB/req
//	fig9      DOSAS vs AS vs TS, 512 MB/req
//	fig10     DOSAS vs AS vs TS, 1 GB/req
//	fig11     achieved bandwidth, 256 MB/req
//	fig12     achieved bandwidth, 512 MB/req
//	solvers   ablation: exhaustive vs MaxGain scheduling
//	migrate   ablation: DOSAS with and without interrupt-and-migrate
//	mixed     ablation: heterogeneous request sizes and operations
//	skew      ablation: hot-spot load across a 4-node deployment
//	trace     trace-driven multi-application mixed stream
//	live      live-mode TS/AS/DOSAS on a real in-process cluster
//	ce-period live ablation: Contention Estimator responsiveness
//	readpath  pipelined read path, window vs serial (writes BENCH_pr2.json)
//	whatif    counterfactual replay of a live decision log (writes BENCH_whatif.json)
//	noisy-neighbor
//	          per-tenant attribution: an aggressor tenant storms one node
//	          while a victim trickles; checks the queue-wait attribution,
//	          the noisy-neighbor alert, and the plane's overhead
//	          (writes BENCH_tenant.json)
//	archive   durable telemetry archive: A/B overhead of archiving every
//	          sampler tick (budget <1%) and restart continuity of the
//	          queried series (writes BENCH_archive.json)
//	qos-isolation
//	          weighted-fair admission: a batch storm vs a victim tenant
//	          on one paced disk, gate on/off vs uncontended baseline
//	          (writes BENCH_qos.json)
//	straggler hedged reads and latency-aware replica selection under
//	          staggered disk brownouts (writes BENCH_qos.json)
//	all       everything simulated (excludes the live experiments)
//
// Simulated experiments run the calibrated discrete-event model at full
// paper scale; `live` runs real kernels over real bytes on a paced,
// link-shaped in-process cluster and reproduces the same orderings at
// laptop scale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"dosas"
	"dosas/internal/core"
	"dosas/internal/daemonflags"
	"dosas/internal/kernels"
	"dosas/internal/sim"
	"dosas/internal/workload"
)

// benchJSONOut is where the live experiment writes its per-scheme
// decision metrics ("" disables). Set from -json-out in main.
var benchJSONOut string

func main() {
	log.SetFlags(0)
	log.SetPrefix("dosas-bench: ")
	exp := flag.String("exp", "all", "experiment id (see -h)")
	seed := flag.Int64("seed", 2012, "base random seed")
	runs := flag.Int("runs", 10, "noisy repetitions for table4")
	jsonOut := flag.String("json-out", "BENCH_live.json",
		"file for the live experiment's per-scheme decision metrics (empty disables)")
	var common daemonflags.Common
	common.RegisterBase(flag.CommandLine)
	flag.Parse()
	benchJSONOut = *jsonOut
	if _, err := common.ServeDebug(nil); err != nil {
		log.Fatal(err)
	}

	all := map[string]func(){
		"table3": table3,
		"fig2": func() {
			executionFigure("Figure 2/4: 2-D Gaussian, TS vs AS, 128 MB/request", "gaussian2d", 128*sim.MB, tsas())
		},
		"fig4": func() {
			executionFigure("Figure 4: 2-D Gaussian, TS vs AS, 128 MB/request", "gaussian2d", 128*sim.MB, tsas())
		},
		"fig5": func() {
			executionFigure("Figure 5: 2-D Gaussian, TS vs AS, 512 MB/request", "gaussian2d", 512*sim.MB, tsas())
		},
		"fig6":   func() { executionFigure("Figure 6: SUM, TS vs AS, 128 MB/request", "sum8", 128*sim.MB, tsas()) },
		"table4": func() { table4(*seed, *runs) },
		"fig7": func() {
			executionFigure("Figure 7: DOSAS vs AS vs TS, 128 MB/request", "gaussian2d", 128*sim.MB, sim.PaperSchemes)
		},
		"fig8": func() {
			executionFigure("Figure 8: DOSAS vs AS vs TS, 256 MB/request", "gaussian2d", 256*sim.MB, sim.PaperSchemes)
		},
		"fig9": func() {
			executionFigure("Figure 9: DOSAS vs AS vs TS, 512 MB/request", "gaussian2d", 512*sim.MB, sim.PaperSchemes)
		},
		"fig10": func() {
			executionFigure("Figure 10: DOSAS vs AS vs TS, 1 GB/request", "gaussian2d", 1024*sim.MB, sim.PaperSchemes)
		},
		"fig11":          func() { bandwidthFigure("Figure 11: achieved bandwidth, 256 MB/request", 256*sim.MB) },
		"fig12":          func() { bandwidthFigure("Figure 12: achieved bandwidth, 512 MB/request", 512*sim.MB) },
		"solvers":        solvers,
		"migrate":        migrate,
		"mixed":          mixed,
		"skew":           skew,
		"trace":          trace,
		"live":           live,
		"ce-period":      cePeriod,
		"readpath":       readPath,
		"whatif":         whatif,
		"noisy-neighbor": noisyNeighbor,
		"archive":        archiveExp,
		"qos-isolation":  qosIsolation,
		"straggler":      stragglerExp,
	}
	order := []string{"table3", "fig2", "fig5", "fig6", "table4",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"solvers", "migrate", "mixed", "skew", "trace"}

	switch *exp {
	case "all":
		for _, id := range order {
			all[id]()
			fmt.Println()
		}
	default:
		fn, ok := all[*exp]
		if !ok {
			log.Printf("unknown experiment %q", *exp)
			fmt.Fprintf(os.Stderr, "known: %s all\n", strings.Join(order, " "))
			os.Exit(2)
		}
		fn()
	}
}

func tsas() []core.Scheme { return []core.Scheme{core.SchemeTS, core.SchemeAS} }

func header(title string) {
	fmt.Println(title)
	fmt.Println(strings.Repeat("-", len(title)))
}

// table3 regenerates Table III: computation complexity is the paper's
// description of each operation (the kernels compute the same values, not
// necessarily by that many instructions); the processing rate is measured
// live on this host and shown beside the paper's Discfarm measurement.
func table3() {
	header("Table III: benchmark kernels and processing rates")
	paper := map[string]float64{"sum8": 860e6, "gaussian2d": 80e6}
	fmt.Printf("%-12s %-58s %14s %14s\n", "kernel", "computation complexity", "this host", "paper")
	desc := map[string]string{
		"sum8":       "1 addition per data item",
		"gaussian2d": "9 multiplications, 9 additions, 1 division per pixel",
		"sum64":      "1 addition per float64",
		"minmax":     "2 comparisons per float64",
		"moments":    "2 additions, 1 multiplication per float64",
		"histogram":  "1 increment per byte",
		"count":      "substring scan per byte",
		"wordcount":  "1 classification per byte",
		"downsample": "1 addition per float64, 1 division per group",
	}
	for _, op := range []string{"sum8", "gaussian2d", "sum64", "minmax", "moments", "histogram", "count", "wordcount", "downsample"} {
		rate, err := kernels.Calibrate(op, 32<<20, false)
		if err != nil {
			log.Fatal(err)
		}
		paperCol := "-"
		if p, ok := paper[op]; ok {
			paperCol = fmt.Sprintf("%.0f MB/s", p/1e6)
		}
		fmt.Printf("%-12s %-58s %11.0f MB/s %14s\n", op, desc[op], rate/1e6, paperCol)
	}
}

// executionFigure prints one execution-time figure: seconds per scheme
// across the paper's request scales.
func executionFigure(title, op string, bytes uint64, schemes []core.Scheme) {
	header(title)
	pts, err := sim.Series(op, bytes, schemes, sim.Noise{}, 0)
	if err != nil {
		log.Fatal(err)
	}
	printSeries(pts, func(p sim.Point) string { return fmt.Sprintf("%9.1fs", p.Seconds) })
}

// bandwidthFigure prints one achieved-bandwidth figure.
func bandwidthFigure(title string, bytes uint64) {
	header(title)
	pts, err := sim.Series("gaussian2d", bytes, sim.PaperSchemes, sim.Noise{}, 0)
	if err != nil {
		log.Fatal(err)
	}
	printSeries(pts, func(p sim.Point) string { return fmt.Sprintf("%6.1fMB/s", p.Bandwidth/1e6) })
}

func printSeries(pts []sim.Point, cell func(sim.Point) string) {
	bySchemeN := map[core.Scheme]map[int]sim.Point{}
	var schemes []core.Scheme
	for _, p := range pts {
		if _, ok := bySchemeN[p.Scheme]; !ok {
			bySchemeN[p.Scheme] = map[int]sim.Point{}
			schemes = append(schemes, p.Scheme)
		}
		bySchemeN[p.Scheme][p.Requests] = p
	}
	fmt.Printf("%-22s", "I/Os per storage node")
	for _, n := range sim.PaperScales {
		fmt.Printf("%11d", n)
	}
	fmt.Println()
	for _, s := range schemes {
		fmt.Printf("%-22s", s.String())
		for _, n := range sim.PaperScales {
			fmt.Printf("%11s", cell(bySchemeN[s][n]))
		}
		fmt.Println()
	}
}

// table4 prints the scheduling-algorithm accuracy table, averaged over
// several noisy repetitions, plus one full run's misjudged rows.
func table4(seed int64, runs int) {
	header("Table IV: scheduling algorithm evaluation")
	var accSum float64
	var sample []sim.Situation
	for r := 0; r < runs; r++ {
		sits, err := sim.ScheduleAccuracy(seed + int64(r)*104729)
		if err != nil {
			log.Fatal(err)
		}
		accSum += sim.AccuracyRate(sits)
		if r == 0 {
			sample = sits
		}
	}
	fmt.Printf("%-4s %-12s %6s %9s %10s %10s %9s\n",
		"#", "benchmark", "IOs", "size", "algorithm", "practice", "judgment")
	shown := 0
	for _, s := range sample {
		// Show the boundary neighbourhood plus any misjudgment, like
		// the paper's excerpted table.
		boundary := s.Op == "gaussian2d" && s.Requests >= 2 && s.Requests <= 8
		if !boundary && s.Correct && shown > 18 {
			continue
		}
		verdict := "TRUE"
		if !s.Correct {
			verdict = "FALSE"
		}
		fmt.Printf("%-4d %-12s %6d %7dMB %10s %10s %9s\n",
			s.Index, s.Op, s.Requests, s.Bytes/sim.MB, s.Decision, s.Practice, verdict)
		shown++
	}
	fmt.Printf("\nsituations: %d; mean accuracy over %d noisy runs: %.1f%% (paper: 95%%)\n",
		len(sample), runs, accSum/float64(runs)*100)
}

// solvers compares the paper's exhaustive enumeration with MaxGain on
// decision quality and compute cost.
func solvers() {
	header("Ablation: exhaustive (paper Eq. 9-11) vs MaxGain scheduling")
	env := core.Env{BW: 118e6, StorageRate: 80e6, ComputeRate: 80e6}
	fmt.Printf("%-6s %14s %14s %12s %12s\n", "k", "exhaustive", "maxgain", "t-exh", "t-mg")
	for _, k := range []int{4, 8, 12, 16, 20} {
		reqs := make([]core.Request, k)
		for i := range reqs {
			reqs[i] = core.Request{ID: uint64(i + 1), Bytes: uint64(64+i*37%512) * sim.MB, ResultBytes: 29}
		}
		t0 := time.Now()
		exh := core.Exhaustive{}.Solve(reqs, env)
		tExh := time.Since(t0)
		t0 = time.Now()
		mg := core.MaxGain{}.Solve(reqs, env)
		tMg := time.Since(t0)
		fmt.Printf("%-6d %13.3fs %13.3fs %12s %12s\n",
			k, env.TotalTime(reqs, exh), env.TotalTime(reqs, mg), tExh, tMg)
	}
	fmt.Println("\n(objective values must match; MaxGain time stays flat while 2^k explodes)")
}

// migrate runs the interrupt-and-migrate ablation across scales.
func migrate() {
	header("Ablation: DOSAS with vs without interrupt-and-migrate (Gaussian, 128 MB)")
	fmt.Printf("%-22s", "I/Os per storage node")
	for _, n := range sim.PaperScales {
		fmt.Printf("%11d", n)
	}
	fmt.Println()
	for _, mig := range []bool{true, false} {
		mig := mig
		label := "DOSAS (migrate)"
		if !mig {
			label = "DOSAS (no migrate)"
		}
		fmt.Printf("%-22s", label)
		for _, n := range sim.PaperScales {
			m, err := sim.Run(sim.Config{
				Scheme: core.SchemeDOSAS, Requests: n,
				BytesPerRequest: 128 * sim.MB, Op: "gaussian2d", Migration: &mig,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%10.1fs", m.Makespan)
		}
		fmt.Println()
	}
}

// mixed shows the solver finding genuinely mixed schedules on
// heterogeneous queues, against both static baselines.
func mixed() {
	header("Ablation: heterogeneous queue (mixed sizes and operations)")
	env := core.Env{BW: 118e6, StorageRate: 80e6, ComputeRate: 80e6}
	// Two fast SUM requests (whose kernels outrun the network — bouncing
	// never pays) queued behind six large Gaussian requests whose summed
	// bounce gains exceed the parallel compute tail z.
	reqs := []core.Request{
		{ID: 1, Bytes: 128 * sim.MB, ResultBytes: 8, StorageRate: 860e6, ComputeRate: 860e6},
		{ID: 2, Bytes: 128 * sim.MB, ResultBytes: 8, StorageRate: 860e6, ComputeRate: 860e6},
		{ID: 3, Bytes: 1024 * sim.MB, ResultBytes: 29},
		{ID: 4, Bytes: 1024 * sim.MB, ResultBytes: 29},
		{ID: 5, Bytes: 1024 * sim.MB, ResultBytes: 29},
		{ID: 6, Bytes: 1024 * sim.MB, ResultBytes: 29},
		{ID: 7, Bytes: 1024 * sim.MB, ResultBytes: 29},
		{ID: 8, Bytes: 1024 * sim.MB, ResultBytes: 29},
	}
	a := core.MaxGain{}.Solve(reqs, env)
	fmt.Printf("%-4s %10s %14s %10s\n", "req", "size", "op-rate", "placement")
	for i, r := range reqs {
		rate := r.StorageRate
		if rate == 0 {
			rate = env.StorageRate
		}
		place := "bounce"
		if a[i] {
			place = "active"
		}
		fmt.Printf("%-4d %7dMB %11.0fMB/s %10s\n", r.ID, r.Bytes/sim.MB, rate/1e6, place)
	}
	fmt.Printf("\nschedule: %.1fs   all-active: %.1fs   all-normal: %.1fs\n",
		env.TotalTime(reqs, a), env.TimeAllActive(reqs), env.TimeAllNormal(reqs))
}

// skew sweeps hot-spot placement over a 4-node deployment: as more of the
// load lands on node 0, AS collapses on the hot node while DOSAS bounces
// its overflow.
func skew() {
	header("Ablation: load skew across 4 storage nodes (Gaussian, 32 × 128 MB)")
	skews := []float64{0, 0.25, 0.5, 0.75, 0.9}
	fmt.Printf("%-8s", "scheme")
	for _, s := range skews {
		fmt.Printf("%12s", fmt.Sprintf("skew=%.2f", s))
	}
	fmt.Println()
	for _, scheme := range sim.PaperSchemes {
		fmt.Printf("%-8s", scheme)
		for _, s := range skews {
			m, err := sim.Run(sim.Config{
				Scheme: scheme, Requests: 32, BytesPerRequest: 128 * sim.MB,
				Op: "gaussian2d", StorageNodes: 4, Skew: s, Seed: 11,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%11.1fs", m.Makespan)
		}
		fmt.Println()
	}
}

// trace plays a multi-application mixed stream (the paper's Figure 1
// scenario: several applications' normal and active I/O converging on one
// storage node) through the trace-driven simulator under each scheme.
func trace() {
	header("Trace-driven: 4 applications, mixed normal/active I/O, one storage node")
	reqs := workload.Stream(workload.StreamConfig{
		Apps:             4,
		RequestsPerApp:   16,
		ActiveFraction:   0.7,
		Ops:              []string{"gaussian2d", "sum8", "histogram"},
		MeanInterarrival: 0.5,
		MinBytes:         32 * sim.MB,
		MaxBytes:         512 * sim.MB,
		Seed:             42,
	})
	var active, normal int
	var totalBytes uint64
	for _, r := range reqs {
		if r.Active {
			active++
		} else {
			normal++
		}
		totalBytes += r.Bytes
	}
	fmt.Printf("stream: %d requests (%d active, %d normal), %.1f GB total\n\n",
		len(reqs), active, normal, float64(totalBytes)/(1<<30))
	fmt.Printf("%-8s %10s %12s %14s %14s %12s\n",
		"scheme", "makespan", "mean lat", "normal lat", "bytes moved", "accepted")
	for _, scheme := range sim.PaperSchemes {
		m, err := sim.RunStream(sim.StreamConfig{Scheme: scheme, Seed: 42, Noise: sim.DiscfarmNoise()}, reqs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %9.1fs %11.1fs %13.1fs %11.2fGB %9d/%d\n",
			scheme, m.Makespan, m.MeanLatency, m.MeanNormalLatency,
			float64(m.RawBytesMoved)/(1<<30), m.Accepted, active)
	}
}

// cePeriod is the live Contention Estimator staleness ablation: a kernel
// is running when a normal-I/O storm hits its storage node. A responsive
// CE (short period) interrupts and migrates the kernel quickly; a stale
// one leaves it crawling on the contended node.
func cePeriod() {
	header("Ablation: Contention Estimator period (live; kernel under a normal-I/O storm)")
	kernels.SetRate("sum8", 10e6)
	defer kernels.ResetRates()
	fmt.Printf("%-12s %16s %14s\n", "CE period", "active req time", "migrated")
	for _, period := range []time.Duration{5 * time.Millisecond, 50 * time.Millisecond,
		500 * time.Millisecond, 10 * time.Second} {
		elapsed, migrated, err := cePeriodRun(period)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %15.2fs %14v\n", period, elapsed.Seconds(), migrated)
	}
	fmt.Println("\n(a responsive CE rescues the kernel; a stale one strands it on the hot node)")
}

func cePeriodRun(period time.Duration) (time.Duration, bool, error) {
	const activeBytes = 8 << 20
	const stormReaders = 12
	const stormDuration = 4 * time.Second
	cluster, err := dosas.StartCluster(dosas.Options{
		DataServers:     1,
		Policy:          dosas.Dynamic,
		LinkRate:        100e6,
		Pace:            true,
		EstimatorPeriod: period,
	})
	if err != nil {
		return 0, false, err
	}
	defer cluster.Close()
	fs, err := cluster.ConnectPaced(dosas.DOSAS)
	if err != nil {
		return 0, false, err
	}
	defer fs.Close()
	f, err := fs.Create("ce/data", dosas.CreateOptions{Width: 1})
	if err != nil {
		return 0, false, err
	}
	total := activeBytes * (stormReaders + 1)
	if _, err := f.WriteAt(workload.RandomBytes(total, 3), 0); err != nil {
		return 0, false, err
	}

	// Launch the active request, give it a head start, then sustain a
	// normal-I/O storm for longer than the request could possibly take.
	type out struct {
		res *dosas.Result
		err error
	}
	done := make(chan out, 1)
	start := time.Now()
	go func() {
		res, err := f.ReadEx("sum8", nil, 0, activeBytes)
		done <- out{res, err}
	}()
	time.Sleep(50 * time.Millisecond)
	stormEnd := time.Now().Add(stormDuration)
	var storm sync.WaitGroup
	for r := 0; r < stormReaders; r++ {
		storm.Add(1)
		go func(r int) {
			defer storm.Done()
			buf := make([]byte, 2<<20)
			for time.Now().Before(stormEnd) {
				f.ReadAt(buf, uint64((r+1)*activeBytes)) //nolint:errcheck
			}
		}(r)
	}
	o := <-done
	elapsed := time.Since(start)
	storm.Wait()
	if o.err != nil {
		return 0, false, o.err
	}
	migrated := len(o.res.Parts) > 0 && o.res.Parts[0].Where == dosas.Migrated
	return elapsed, migrated, nil
}

// live reproduces the scheme ordering with real bytes and real kernels on
// an in-process cluster: kernels paced to 20 MB/s against a 30 MB/s
// shaped link put the TS/AS crossover at n = 3.
func live() {
	header("Live mode: real cluster, paced kernels (20 MB/s) vs shaped link (30 MB/s)")
	const d = 4 << 20
	scales := []int{1, 2, 4, 8}
	kernels.SetRate("sum8", 20e6)
	defer kernels.ResetRates()

	// liveEntry is one (scheme, scale) cell with the storage nodes'
	// scheduling-decision metrics for that run.
	type liveEntry struct {
		Requests  int                   `json:"requests"`
		Seconds   float64               `json:"seconds"`
		Decisions dosas.DecisionMetrics `json:"decisions"`
	}
	report := make(map[string][]liveEntry)

	fmt.Printf("%-8s", "scheme")
	for _, n := range scales {
		fmt.Printf("%10s", fmt.Sprintf("n=%d", n))
	}
	fmt.Println()
	for _, scheme := range []dosas.Scheme{dosas.TS, dosas.AS, dosas.DOSAS} {
		fmt.Printf("%-8s", scheme)
		for _, n := range scales {
			elapsed, dm, err := liveRun(scheme, n, d)
			if err != nil {
				log.Fatal(err)
			}
			report[scheme.String()] = append(report[scheme.String()], liveEntry{
				Requests: n, Seconds: elapsed.Seconds(), Decisions: dm,
			})
			fmt.Printf("%9.2fs", elapsed.Seconds())
		}
		fmt.Println()
	}
	fmt.Println("\nper-scheme scheduling decisions (all scales):")
	for _, scheme := range []dosas.Scheme{dosas.TS, dosas.AS, dosas.DOSAS} {
		var agg dosas.DecisionMetrics
		var errSum float64
		for _, e := range report[scheme.String()] {
			agg.Arrivals += e.Decisions.Arrivals
			agg.Completed += e.Decisions.Completed
			agg.Bounced += e.Decisions.Bounced
			agg.Interrupted += e.Decisions.Interrupted
			agg.Migrated += e.Decisions.Migrated
			agg.EstimatorSamples += e.Decisions.EstimatorSamples
			errSum += e.Decisions.EstimatorErrPct * float64(e.Decisions.EstimatorSamples)
		}
		if agg.Arrivals > 0 {
			agg.BounceRate = float64(agg.Bounced) / float64(agg.Arrivals)
			agg.InterruptRate = float64(agg.Interrupted) / float64(agg.Arrivals)
		}
		if agg.EstimatorSamples > 0 {
			agg.EstimatorErrPct = errSum / float64(agg.EstimatorSamples)
		}
		fmt.Printf("  %-8s arrivals=%d bounce=%.0f%% interrupt=%.0f%% migrated=%d estimator-err=%.0f%% (%d samples)\n",
			scheme, agg.Arrivals, agg.BounceRate*100, agg.InterruptRate*100,
			agg.Migrated, agg.EstimatorErrPct, agg.EstimatorSamples)
	}
	if benchJSONOut != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(benchJSONOut, blob, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote per-scheme decision metrics to %s\n", benchJSONOut)
	}
	fmt.Println("\n(expect AS to win for n<3 and TS beyond; DOSAS tracks the winner)")
}

func liveRun(scheme dosas.Scheme, n, reqBytes int) (time.Duration, dosas.DecisionMetrics, error) {
	policy := dosas.Dynamic
	switch scheme {
	case dosas.AS:
		policy = dosas.AlwaysAccept
	case dosas.TS:
		policy = dosas.AlwaysBounce
	}
	cluster, err := dosas.StartCluster(dosas.Options{
		DataServers: 1,
		Policy:      policy,
		LinkRate:    30e6,
		Pace:        true,
	})
	if err != nil {
		return 0, dosas.DecisionMetrics{}, err
	}
	defer cluster.Close()
	fs, err := cluster.ConnectPaced(scheme)
	if err != nil {
		return 0, dosas.DecisionMetrics{}, err
	}
	defer fs.Close()
	f, err := fs.Create("live/data", dosas.CreateOptions{Width: 1})
	if err != nil {
		return 0, dosas.DecisionMetrics{}, err
	}
	if _, err := f.WriteAt(workload.RandomBytes(n*reqBytes, 7), 0); err != nil {
		return 0, dosas.DecisionMetrics{}, err
	}
	start := time.Now()
	done := make(chan error, n)
	for r := 0; r < n; r++ {
		go func(r int) {
			_, err := f.ReadEx("sum8", nil, uint64(r*reqBytes), uint64(reqBytes))
			done <- err
		}(r)
	}
	for r := 0; r < n; r++ {
		if err := <-done; err != nil {
			return 0, dosas.DecisionMetrics{}, err
		}
	}
	return time.Since(start), cluster.DecisionMetrics(), nil
}

// whatif records a live contention run under the runtime's MaxGain solver
// and then replays the resulting decision log under every replay policy,
// scoring each counterfactual against the recorded measured costs. The
// "recorded" and "maxgain" rows should agree with the log exactly, and
// "exhaustive", the oracle, with them; the static policies show what
// always-accept and always-bounce would have cost on the same arrivals.
func whatif() {
	header("What-if: counterfactual replay of a live MaxGain decision log")
	const d = 4 << 20
	scales := []int{1, 2, 4, 8}
	kernels.SetRate("sum8", 20e6)
	defer kernels.ResetRates()

	cluster, err := dosas.StartCluster(dosas.Options{
		DataServers: 1,
		Policy:      dosas.Dynamic,
		LinkRate:    30e6,
		Pace:        true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fs, err := cluster.ConnectPaced(dosas.DOSAS)
	if err != nil {
		log.Fatal(err)
	}
	defer fs.Close()
	f, err := fs.Create("whatif/data", dosas.CreateOptions{Width: 1})
	if err != nil {
		log.Fatal(err)
	}
	maxN := scales[len(scales)-1]
	if _, err := f.WriteAt(workload.RandomBytes(maxN*d, 7), 0); err != nil {
		log.Fatal(err)
	}
	// The live experiment's contention sweep: lone requests favour the
	// storage node, deep batches favour bouncing, so the log holds both
	// kinds of decision for the replays to disagree over.
	for _, n := range scales {
		done := make(chan error, n)
		for r := 0; r < n; r++ {
			go func(r int) {
				_, err := f.ReadEx("sum8", nil, uint64(r*d), uint64(d))
				done <- err
			}(r)
		}
		for r := 0; r < n; r++ {
			if err := <-done; err != nil {
				log.Fatal(err)
			}
		}
	}

	records := cluster.DecisionLogAll()
	if len(records) == 0 {
		log.Fatal("whatif: the run recorded no decisions")
	}
	fmt.Printf("recorded %d solver invocations on %d arrival(s) sweep %v\n\n",
		len(records), sumInts(scales), scales)

	var reports []dosas.ReplayReport
	fmt.Printf("%-12s %10s %8s %8s %10s %10s %10s\n",
		"policy", "decisions", "bounce", "agree", "total", "oracle", "regret")
	for _, policy := range dosas.ReplayPolicies() {
		rep, err := dosas.ReplayDecisions(records, policy, dosas.ReplayOverrides{})
		if err != nil {
			log.Fatal(err)
		}
		reports = append(reports, rep)
		fmt.Printf("%-12s %10d %7.0f%% %7.0f%% %9.2fs %9.2fs %9.2fs\n",
			rep.Policy, rep.Decisions, rep.BounceRate*100, rep.AgreementRate*100,
			rep.TotalSeconds, rep.OracleSeconds, rep.RegretSeconds)
	}
	// One perturbed environment alongside the policy sweep: the recorded
	// choices replayed over a 10× faster network, where bouncing is
	// nearly free and always-bounce should close on the oracle.
	fast := dosas.ReplayOverrides{BW: 10 * 118e6}
	for _, policy := range []string{"recorded", "all-normal"} {
		rep, err := dosas.ReplayDecisions(records, policy, fast)
		if err != nil {
			log.Fatal(err)
		}
		reports = append(reports, rep)
		fmt.Printf("%-12s %10d %7.0f%% %7.0f%% %9.2fs %9.2fs %9.2fs  (bw ×10)\n",
			rep.Policy, rep.Decisions, rep.BounceRate*100, rep.AgreementRate*100,
			rep.TotalSeconds, rep.OracleSeconds, rep.RegretSeconds)
	}

	blob, err := dosas.EncodeReplayReports(reports)
	if err != nil {
		log.Fatal(err)
	}
	const out = "BENCH_whatif.json"
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %d counterfactual reports to %s\n", len(reports), out)
	fmt.Println("(expect recorded ≡ maxgain ≡ exhaustive with zero mutual disagreement, and the")
	fmt.Println(" static policies to pay regret on whichever side the sweep stressed)")
}

func sumInts(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// readPath measures the sliding-window data path (PR 2) against the
// serial chunk-at-a-time loop it replaced, on a latency-shaped in-process
// cluster (250 µs one way — a datacenter-fabric hop). One row per
// (range size, stripe width); the window column should approach
// depth × serial on narrow stripes and stay ahead everywhere.
func readPath() {
	header("Read path: pipelined window vs serial transfers (250 µs one-way link delay)")
	const delay = 250 * time.Microsecond
	const chunk = 256 << 10 // latency-bound regime: many small round trips
	const maxMB = 256
	const runs = 3
	sizesMB := []int{1, 4, 16, 64, 256}
	widths := []int{1, 2, 4, 8}

	type cell struct {
		SizeMB  int     `json:"size_mb"`
		Width   int     `json:"width"`
		Depth   int     `json:"depth"`
		Seconds float64 `json:"seconds"`
		MBps    float64 `json:"mbps"`
	}
	var cells []cell

	measure := func(width, depth int) map[int]float64 {
		cluster, err := dosas.StartCluster(dosas.Options{
			DataServers:   width,
			Policy:        dosas.AlwaysBounce,
			LinkDelay:     delay,
			WindowDepth:   depth,
			TransferChunk: chunk,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer cluster.Close()
		fs, err := cluster.Connect(dosas.TS)
		if err != nil {
			log.Fatal(err)
		}
		defer fs.Close()
		f, err := fs.Create("bench/readpath", dosas.CreateOptions{Width: width, StripeSize: 1 << 20})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := f.WriteAt(workload.RandomBytes(maxMB<<20, 2), 0); err != nil {
			log.Fatal(err)
		}
		buf := make([]byte, maxMB<<20)
		out := make(map[int]float64, len(sizesMB))
		for _, mb := range sizesMB {
			best := time.Duration(1<<62 - 1)
			for r := 0; r < runs; r++ {
				start := time.Now()
				if _, err := f.ReadAt(buf[:mb<<20], 0); err != nil {
					log.Fatal(err)
				}
				if d := time.Since(start); d < best {
					best = d
				}
			}
			out[mb] = best.Seconds()
			cells = append(cells, cell{
				SizeMB: mb, Width: width, Depth: depth,
				Seconds: best.Seconds(),
				MBps:    float64(mb<<20) / best.Seconds() / 1e6,
			})
		}
		return out
	}

	fmt.Printf("%-10s %-7s %12s %12s %9s\n", "range", "width", "serial", "window", "speedup")
	for _, width := range widths {
		serial := measure(width, 1)
		window := measure(width, 0) // 0 = pfs.DefaultWindowDepth
		for _, mb := range sizesMB {
			fmt.Printf("%7dMB %-7d %11.4fs %11.4fs %8.2fx\n",
				mb, width, serial[mb], window[mb], serial[mb]/window[mb])
		}
	}

	blob, err := json.MarshalIndent(map[string]any{
		"experiment":   "readpath",
		"one_way_us":   delay.Microseconds(),
		"chunk_bytes":  chunk,
		"runs_per_pt":  runs,
		"serial_depth": 1,
		"results":      cells,
	}, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	const out = "BENCH_pr2.json"
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote window-vs-serial matrix to %s\n", out)
}
