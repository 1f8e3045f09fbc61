package sim

import (
	"math"
	"testing"
	"testing/quick"

	"dosas/internal/core"
	"dosas/internal/ioqueue"
)

// runPoint is a test shorthand for the noise-free simulator.
func runPoint(t *testing.T, scheme core.Scheme, n int, bytes uint64, op string) Metrics {
	t.Helper()
	m, err := Run(Config{Scheme: scheme, Requests: n, BytesPerRequest: bytes, Op: op})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The simulated DOSAS scheme prices the node exactly as a live storage
// node's Contention Estimator does at zero load, so the two descriptions
// of the node cannot drift apart.
func TestEnvMatchesEstimator(t *testing.T) {
	est, err := core.NewEstimator(core.EstimatorConfig{BW: discfarmBW}, ioqueue.New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"sum8", "gaussian2d"} {
		cfg := Config{Scheme: core.SchemeDOSAS, Requests: 1, BytesPerRequest: MB, Op: op}
		if err := cfg.applyDefaults(); err != nil {
			t.Fatal(err)
		}
		if got, want := cfg.env(), est.Env(op); got != want {
			t.Errorf("%s: simulator env %+v, estimator env %+v", op, got, want)
		}
	}
}

// Figure 2/4: the Gaussian filter under AS beats TS below 4 requests per
// storage node and loses beyond.
func TestFig2GaussianCrossover(t *testing.T) {
	for _, n := range PaperScales {
		as := runPoint(t, core.SchemeAS, n, 128*MB, "gaussian2d").Makespan
		ts := runPoint(t, core.SchemeTS, n, 128*MB, "gaussian2d").Makespan
		switch {
		case n <= 2 && as >= ts:
			t.Errorf("n=%d: AS %.2fs should beat TS %.2fs", n, as, ts)
		case n >= 4 && ts >= as:
			t.Errorf("n=%d: TS %.2fs should beat AS %.2fs", n, ts, as)
		}
	}
}

// Figure 5: the crossover persists at 512 MB requests.
func TestFig5GaussianCrossoverAt512MB(t *testing.T) {
	as1 := runPoint(t, core.SchemeAS, 1, 512*MB, "gaussian2d").Makespan
	ts1 := runPoint(t, core.SchemeTS, 1, 512*MB, "gaussian2d").Makespan
	if as1 >= ts1 {
		t.Errorf("n=1: AS %.2f !< TS %.2f", as1, ts1)
	}
	as64 := runPoint(t, core.SchemeAS, 64, 512*MB, "gaussian2d").Makespan
	ts64 := runPoint(t, core.SchemeTS, 64, 512*MB, "gaussian2d").Makespan
	if ts64 >= as64 {
		t.Errorf("n=64: TS %.2f !< AS %.2f", ts64, as64)
	}
}

// Figure 6: SUM's compute rate dwarfs the network, so AS wins at every
// scale.
func TestFig6SumASAlwaysWins(t *testing.T) {
	for _, n := range PaperScales {
		as := runPoint(t, core.SchemeAS, n, 128*MB, "sum8").Makespan
		ts := runPoint(t, core.SchemeTS, n, 128*MB, "sum8").Makespan
		if as >= ts {
			t.Errorf("n=%d: AS %.2fs should always beat TS %.2fs for SUM", n, as, ts)
		}
	}
}

// Figures 7–10: DOSAS tracks the better of AS and TS at every scale and
// size (within a small tolerance for the admission transient).
func TestDOSASTracksTheWinner(t *testing.T) {
	for _, bytes := range PaperSizes {
		for _, n := range PaperScales {
			as := runPoint(t, core.SchemeAS, n, bytes, "gaussian2d").Makespan
			ts := runPoint(t, core.SchemeTS, n, bytes, "gaussian2d").Makespan
			do := runPoint(t, core.SchemeDOSAS, n, bytes, "gaussian2d").Makespan
			best := math.Min(as, ts)
			if do > best*1.10 {
				t.Errorf("size=%dMB n=%d: DOSAS %.2fs exceeds best %.2fs by >10%%",
					bytes/MB, n, do, best)
			}
		}
	}
}

// The paper's headline ratios: at small scale DOSAS ≈ AS gains roughly
// 40 % over TS; at large scale DOSAS ≈ TS gains roughly 20 % over AS.
func TestHeadlineImprovementRatios(t *testing.T) {
	ts1 := runPoint(t, core.SchemeTS, 1, 128*MB, "gaussian2d").Makespan
	do1 := runPoint(t, core.SchemeDOSAS, 1, 128*MB, "gaussian2d").Makespan
	gainSmall := (ts1 - do1) / ts1
	if gainSmall < 0.25 || gainSmall > 0.55 {
		t.Errorf("small-scale gain over TS = %.0f%%, paper reports ≈40%%", gainSmall*100)
	}
	as64 := runPoint(t, core.SchemeAS, 64, 128*MB, "gaussian2d").Makespan
	do64 := runPoint(t, core.SchemeDOSAS, 64, 128*MB, "gaussian2d").Makespan
	gainLarge := (as64 - do64) / as64
	if gainLarge < 0.10 || gainLarge > 0.45 {
		t.Errorf("large-scale gain over AS = %.0f%%, paper reports ≈21%%", gainLarge*100)
	}
}

// Figures 11–12: achieved bandwidth mirrors execution time — AS leads at
// small scale, TS at large scale, DOSAS best (or tied) nearly everywhere.
func TestBandwidthFigures(t *testing.T) {
	for _, bytes := range []uint64{256 * MB, 512 * MB} {
		for _, n := range PaperScales {
			as := runPoint(t, core.SchemeAS, n, bytes, "gaussian2d").Bandwidth
			ts := runPoint(t, core.SchemeTS, n, bytes, "gaussian2d").Bandwidth
			do := runPoint(t, core.SchemeDOSAS, n, bytes, "gaussian2d").Bandwidth
			best := math.Max(as, ts)
			if do < best*0.90 {
				t.Errorf("size=%dMB n=%d: DOSAS bandwidth %.1f MB/s below best %.1f MB/s",
					bytes/MB, n, do/1e6, best/1e6)
			}
		}
	}
}

// Table IV: the scheduling algorithm must judge ≥90 % of situations
// correctly, with every misjudgment at the Gaussian break-even boundary.
func TestTable4Accuracy(t *testing.T) {
	sits, err := ScheduleAccuracy(2012)
	if err != nil {
		t.Fatal(err)
	}
	if len(sits) != len(PaperScales)*len(PaperSizes)*2 {
		t.Fatalf("situations = %d", len(sits))
	}
	acc := AccuracyRate(sits)
	if acc < 0.90 {
		t.Errorf("accuracy = %.0f%%, paper reports 95%%", acc*100)
	}
	for _, s := range sits {
		if s.Correct {
			continue
		}
		if s.Op != "gaussian2d" {
			t.Errorf("misjudgment outside the Gaussian benchmark: %+v", s)
		}
		if s.Requests < 2 || s.Requests > 8 {
			t.Errorf("misjudgment far from the break-even boundary: %+v", s)
		}
	}
	// SUM must be judged perfectly (paper: "100% accuracy for SUM").
	for _, s := range sits {
		if s.Op == "sum8" && !s.Correct {
			t.Errorf("SUM misjudged: %+v", s)
		}
	}
}

func TestDOSASDispositionCounts(t *testing.T) {
	// Small scale: everything accepted.
	m := runPoint(t, core.SchemeDOSAS, 2, 128*MB, "gaussian2d")
	if m.Accepted != 2 || m.Bounced != 0 {
		t.Errorf("n=2: accepted=%d bounced=%d", m.Accepted, m.Bounced)
	}
	// Large scale: everything ends up normal (early admits migrate).
	m = runPoint(t, core.SchemeDOSAS, 16, 128*MB, "gaussian2d")
	if m.Accepted != 0 {
		t.Errorf("n=16: accepted=%d, want 0 (migration drains the active set)", m.Accepted)
	}
	if m.Migrated == 0 {
		t.Error("n=16: expected early admissions to migrate")
	}
}

func TestMigrationAblation(t *testing.T) {
	off := false
	noMig, err := Run(Config{Scheme: core.SchemeDOSAS, Requests: 16,
		BytesPerRequest: 128 * MB, Op: "gaussian2d", Migration: &off})
	if err != nil {
		t.Fatal(err)
	}
	if noMig.Accepted == 0 {
		t.Error("without migration, early admissions must stay active")
	}
	if noMig.Migrated != 0 {
		t.Error("migration count must be zero when disabled")
	}
}

// The AS scheme moves only results; TS moves all raw data.
func TestRawBytesMoved(t *testing.T) {
	as := runPoint(t, core.SchemeAS, 4, 128*MB, "sum8")
	if as.RawBytesMoved != 4*8 {
		t.Errorf("AS moved %d bytes, want 32", as.RawBytesMoved)
	}
	ts := runPoint(t, core.SchemeTS, 4, 128*MB, "sum8")
	if ts.RawBytesMoved != 4*128*MB {
		t.Errorf("TS moved %d bytes", ts.RawBytesMoved)
	}
}

// Noise-free AS and TS makespans must match the closed-form model.
func TestMakespanMatchesClosedForm(t *testing.T) {
	const n, d = 8, 128 * MB
	const s, c, bw = 80e6, 80e6, 118e6
	ts := runPoint(t, core.SchemeTS, n, d, "gaussian2d").Makespan
	wantTS := float64(n*d)/bw + float64(d)/c
	if math.Abs(ts-wantTS) > wantTS*0.02 {
		t.Errorf("TS makespan %.3f, closed form %.3f", ts, wantTS)
	}
	as := runPoint(t, core.SchemeAS, n, d, "gaussian2d").Makespan
	wantAS := float64(n*d) / s // result transfer is negligible
	if math.Abs(as-wantAS) > wantAS*0.02 {
		t.Errorf("AS makespan %.3f, closed form %.3f", as, wantAS)
	}
}

func TestSeriesShape(t *testing.T) {
	pts, err := Series("gaussian2d", 128*MB, PaperSchemes, Noise{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3*len(PaperScales) {
		t.Fatalf("points = %d", len(pts))
	}
	// Execution time must be monotonically non-decreasing in n for every
	// scheme.
	byScheme := map[core.Scheme][]Point{}
	for _, p := range pts {
		byScheme[p.Scheme] = append(byScheme[p.Scheme], p)
	}
	for scheme, series := range byScheme {
		for i := 1; i < len(series); i++ {
			if series[i].Seconds < series[i-1].Seconds*0.999 {
				t.Errorf("%v: time decreased from n=%d to n=%d", scheme,
					series[i-1].Requests, series[i].Requests)
			}
		}
	}
}

// Multi-node: balanced placement over k nodes behaves like a single node
// serving 1/k of the requests.
func TestMultiNodeBalancedEqualsScaledSingle(t *testing.T) {
	multi, err := Run(Config{Scheme: core.SchemeAS, Requests: 32,
		BytesPerRequest: 128 * MB, Op: "gaussian2d", StorageNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	single := runPoint(t, core.SchemeAS, 8, 128*MB, "gaussian2d")
	if math.Abs(multi.Makespan-single.Makespan) > single.Makespan*0.05 {
		t.Errorf("4-node/32-req makespan %.2f vs 1-node/8-req %.2f", multi.Makespan, single.Makespan)
	}
}

// Skew concentrates load on node 0: the hot node dominates the makespan,
// and DOSAS adapts per node where AS cannot.
func TestSkewHotSpot(t *testing.T) {
	balanced, err := Run(Config{Scheme: core.SchemeAS, Requests: 32,
		BytesPerRequest: 128 * MB, Op: "gaussian2d", StorageNodes: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := Run(Config{Scheme: core.SchemeAS, Requests: 32,
		BytesPerRequest: 128 * MB, Op: "gaussian2d", StorageNodes: 4, Skew: 0.9, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if hot.Makespan <= balanced.Makespan*1.5 {
		t.Errorf("hot-spot makespan %.2f should far exceed balanced %.2f", hot.Makespan, balanced.Makespan)
	}
	// DOSAS on the same skewed load must beat AS (it bounces the hot
	// node's overflow).
	do, err := Run(Config{Scheme: core.SchemeDOSAS, Requests: 32,
		BytesPerRequest: 128 * MB, Op: "gaussian2d", StorageNodes: 4, Skew: 0.9, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if do.Makespan >= hot.Makespan {
		t.Errorf("DOSAS %.2f should beat AS %.2f under skew", do.Makespan, hot.Makespan)
	}
}

func TestSkewValidation(t *testing.T) {
	if _, err := Run(Config{Scheme: core.SchemeAS, Requests: 1,
		BytesPerRequest: 1, Op: "sum8", Skew: 1.5}); err == nil {
		t.Error("skew > 1 accepted")
	}
	if _, err := Run(Config{Scheme: core.SchemeAS, Requests: 1,
		BytesPerRequest: 1, Op: "sum8", Skew: -0.1}); err == nil {
		t.Error("negative skew accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Scheme: core.SchemeAS, Requests: 0, BytesPerRequest: 1}); err == nil {
		t.Error("zero requests accepted")
	}
	if _, err := Run(Config{Scheme: core.SchemeAS, Requests: 1, BytesPerRequest: 0}); err == nil {
		t.Error("zero bytes accepted")
	}
	if _, err := Run(Config{Scheme: core.SchemeAS, Requests: 1, BytesPerRequest: 1, Op: "bogus"}); err == nil {
		t.Error("unknown op accepted")
	}
}

// Property: the simulator is deterministic for a fixed seed and
// monotone-ish under noise (makespan stays within the jitter envelope of
// the noise-free run).
func TestSimDeterminismProperty(t *testing.T) {
	f := func(seed int64, n8 uint8, scheme8 uint8) bool {
		n := int(n8)%32 + 1
		scheme := PaperSchemes[int(scheme8)%3]
		cfg := Config{Scheme: scheme, Requests: n, BytesPerRequest: 64 * MB,
			Op: "gaussian2d", Noise: DiscfarmNoise(), Seed: seed}
		a, err1 := Run(cfg)
		b, err2 := Run(cfg)
		if err1 != nil || err2 != nil {
			return false
		}
		return a.Makespan == b.Makespan && a.Accepted == b.Accepted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: per-request completion times never exceed the makespan and
// the makespan is achieved by some request.
func TestMakespanConsistencyProperty(t *testing.T) {
	f := func(seed int64, n8 uint8, scheme8 uint8) bool {
		n := int(n8)%64 + 1
		scheme := PaperSchemes[int(scheme8)%3]
		m, err := Run(Config{Scheme: scheme, Requests: n,
			BytesPerRequest: 32 * MB, Op: "sum8", Noise: DiscfarmNoise(), Seed: seed})
		if err != nil {
			return false
		}
		maxSeen := 0.0
		for _, d := range m.PerRequest {
			if d > m.Makespan {
				return false
			}
			if d > maxSeen {
				maxSeen = d
			}
		}
		return maxSeen == m.Makespan && m.Accepted+m.Bounced == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
