package dosas_test

// Acceptance test for the continuous-telemetry pipeline: a contended run
// on a live cluster must (a) show the bounce rate rising in
// Cluster.Series, (b) degrade Cluster.Health on the saturated node, and
// (c) capture exactly one slow-request flight bundle — with a stitched
// cross-node timeline and the client's telemetry window — retrievable
// both in-process and from the on-disk journal dosasctl slow reads.

import (
	"strings"
	"sync"
	"testing"
	"time"

	"dosas"
)

// stormRead fires n concurrent full-file sum8 reads and waits for all.
func stormRead(t *testing.T, fs *dosas.FS, name string, n int, length uint64) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := fs.Open(name)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := f.ReadEx("sum8", nil, 0, length); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestTelemetryContendedRun reproduces the contention example's storm
// (slow sum8 kernel, shaped link) on a Dynamic cluster and checks the
// sampler saw the bounce rate rise from zero.
func TestTelemetryContendedRun(t *testing.T) {
	orig := dosas.RateFor("sum8")
	dosas.SetRate("sum8", 15e6) // slow kernel: break-even ~2 concurrent requests
	defer dosas.SetRate("sum8", orig)

	c := startCluster(t, dosas.Options{
		DataServers:   1,
		Policy:        dosas.Dynamic,
		LinkRate:      30e6,
		Pace:          true,
		TelemetryTick: 2 * time.Millisecond,
	})
	fs, err := c.ConnectClient(dosas.ClientOptions{Scheme: dosas.DOSAS, Pace: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Close)

	const reqBytes = 1 << 20
	writeTestFile(t, fs, "contend.bin", reqBytes)
	time.Sleep(20 * time.Millisecond) // let the sampler record a quiet baseline

	var bounced int64
	for round := 0; round < 5 && bounced == 0; round++ {
		stormRead(t, fs, "contend.bin", 8, reqBytes)
		bounced = c.DecisionMetrics().Bounced
	}
	if bounced == 0 {
		t.Fatalf("storm never bounced a request: %+v", c.DecisionMetrics())
	}
	time.Sleep(10 * time.Millisecond) // a few ticks to sample the post-storm rate

	series := c.Series(0)
	if len(series) == 0 {
		t.Fatal("Cluster.Series returned no nodes")
	}
	var bounceRate dosas.Series
	for _, s := range series["data-0"] {
		if s.Name == "bounce.rate" {
			bounceRate = s
		}
	}
	if len(bounceRate.Points) < 2 {
		t.Fatalf("data-0 bounce.rate series too short: %d points", len(bounceRate.Points))
	}
	first, last := bounceRate.Points[0].Value, bounceRate.Last().Value
	if first != 0 {
		t.Fatalf("bounce.rate baseline = %v, want 0", first)
	}
	if last <= 0 {
		t.Fatalf("bounce.rate never rose: first=%v last=%v max=%v", first, last, bounceRate.Max())
	}
	assertDecisionsConserved(t, c, dosas.Dynamic)
}

// TestHealthDegradesUnderSaturation saturates an AlwaysAccept node's
// active queue and checks the health sweep reports it degraded.
func TestHealthDegradesUnderSaturation(t *testing.T) {
	orig := dosas.RateFor("sum8")
	dosas.SetRate("sum8", 15e6)
	defer dosas.SetRate("sum8", orig)

	c := startCluster(t, dosas.Options{
		DataServers:   1,
		Policy:        dosas.AlwaysAccept,
		Pace:          true,
		TelemetryTick: 2 * time.Millisecond,
	})
	fs := connect(t, c, dosas.AS)

	const reqBytes = 1 << 20
	writeTestFile(t, fs, "saturate.bin", reqBytes)

	for _, r := range c.Health() {
		if !r.Ready {
			t.Fatalf("node %s degraded before load: %+v", r.Node, r)
		}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		stormRead(t, fs, "saturate.bin", 16, reqBytes)
	}()

	degraded := false
	deadline := time.Now().Add(10 * time.Second)
	for !degraded && time.Now().Before(deadline) {
		for _, r := range c.Health() {
			if r.Role == "data" && !r.Ready {
				degraded = true
				for _, chk := range r.Checks {
					if !chk.OK && !strings.Contains(chk.Name, "queue") {
						t.Errorf("unexpected failing check %q: %s", chk.Name, chk.Detail)
					}
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	<-done
	if !degraded {
		t.Fatal("data node never reported degraded while its queue was saturated")
	}
}

// TestSlowRequestFlightCapture arms the flight recorder with an absolute
// threshold, issues fast reads below it and one deliberately slow read
// above it, and checks exactly one bundle — stitched timeline, telemetry
// window — lands in the journal and in the on-disk directory dosasctl
// slow reads.
func TestSlowRequestFlightCapture(t *testing.T) {
	orig := dosas.RateFor("sum8")
	dosas.SetRate("sum8", 15e6)
	defer dosas.SetRate("sum8", orig)

	c := startCluster(t, dosas.Options{
		DataServers:   1,
		Policy:        dosas.AlwaysAccept,
		Pace:          true,
		TelemetryTick: 2 * time.Millisecond,
	})
	slowDir := t.TempDir()
	fs, err := c.ConnectClient(dosas.ClientOptions{
		Scheme:        dosas.DOSAS,
		Pace:          true,
		SlowThreshold: 20 * time.Millisecond,
		SlowDir:       slowDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Close)

	const reqBytes = 1 << 20
	f := writeTestFile(t, fs, "slow.bin", reqBytes)

	// Fast reads stay under the threshold: 16 KiB at 15 MB/s is ~1 ms.
	for i := 0; i < 3; i++ {
		if _, err := f.ReadEx("sum8", nil, 0, 16<<10); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.SlowBundles(); len(got) != 0 {
		t.Fatalf("fast reads captured %d bundles, want 0", len(got))
	}

	// The full megabyte takes >=33 ms bounced and ~66 ms on-storage —
	// over the threshold either way.
	res, err := f.ReadEx("sum8", nil, 0, reqBytes)
	if err != nil {
		t.Fatal(err)
	}

	bundles := fs.SlowBundles()
	if len(bundles) != 1 {
		t.Fatalf("got %d flight bundles, want exactly 1", len(bundles))
	}
	b := bundles[0]
	if b.TraceID != res.TraceID {
		t.Fatalf("bundle trace %d, want %d", b.TraceID, res.TraceID)
	}
	if b.Reason != "absolute" {
		t.Fatalf("bundle reason %q, want absolute", b.Reason)
	}
	var sawClient, sawStorage bool
	for _, e := range b.Timeline {
		if e.TraceID != res.TraceID {
			t.Fatalf("stitched event from foreign trace: %+v", e)
		}
		switch {
		case e.Node == "client":
			sawClient = true
		case strings.HasPrefix(e.Node, "data-"):
			sawStorage = true
		}
	}
	if !sawClient || !sawStorage {
		t.Fatalf("timeline not stitched across nodes (client=%v storage=%v, %d events)",
			sawClient, sawStorage, len(b.Timeline))
	}
	if len(b.Series) == 0 {
		t.Fatal("bundle carries no telemetry window")
	}

	disk, err := dosas.ReadSlowBundles(slowDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(disk) != 1 || disk[0].TraceID != b.TraceID {
		t.Fatalf("on-disk journal = %d bundles (trace %d), want the captured one",
			len(disk), b.TraceID)
	}
	if out := dosas.FormatSlowBundle(disk[0]); !strings.Contains(out, "timeline:") ||
		!strings.Contains(out, "telemetry window:") {
		t.Fatalf("formatted bundle missing sections:\n%s", out)
	}
}
