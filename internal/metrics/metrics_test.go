package metrics

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("value = %d", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Fatalf("value = %d", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("value = %d", g.Value())
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 2, 4, 8, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("snapshot = %+v", s)
	}
	if mean := s.Mean(); mean != 203 {
		t.Fatalf("mean = %v", mean)
	}
	if q := s.Quantile(0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := s.Quantile(1); q != 1000 {
		t.Fatalf("q1 = %v", q)
	}
	if q := s.Quantile(0.5); q < 2 || q > 16 {
		t.Fatalf("median estimate = %v", q)
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Observe(-5) // clamps to 0
	if s := h.Snapshot(); s.Min != 0 {
		t.Fatalf("min = %v", s.Min)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops").Add(3)
	if r.Counter("ops").Value() != 3 {
		t.Fatal("counter identity lost")
	}
	r.Gauge("depth").Set(2)
	r.Histogram("lat").Observe(5)
	snap := r.Snapshot()
	if snap.Counter("ops") != 3 || snap.Gauges["depth"] != 2 || snap.Histograms["lat"].Count != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(1)
			}
		}()
	}
	wg.Wait()
	if r.Counter("c").Value() != 800 {
		t.Fatalf("counter = %d", r.Counter("c").Value())
	}
}

func TestHistogramQuantileBucketBoundaries(t *testing.T) {
	// Sub-1 values land in bucket 0, whose quantile estimate is 1.
	var h Histogram
	h.Observe(0.25)
	h.Observe(0.5)
	h.Observe(0.75)
	if q := h.Snapshot().Quantile(0.5); q != 1 {
		t.Fatalf("bucket-0 median = %v, want 1", q)
	}

	// A single observation reports its bucket's upper bound for interior
	// quantiles, and exact min/max at the edges.
	var h2 Histogram
	h2.Observe(1000) // bucket 10: (512, 1024]
	s := h2.Snapshot()
	if q := s.Quantile(0.5); q != 1024 {
		t.Fatalf("median = %v, want bucket upper bound 1024", q)
	}
	if s.Quantile(0) != 1000 || s.Quantile(1) != 1000 {
		t.Fatalf("edge quantiles = %v, %v, want exact value", s.Quantile(0), s.Quantile(1))
	}

	// Power-of-two observations map to successive buckets: interior
	// quantile estimates are non-decreasing in q (the edges q=0 and q=1
	// report exact min/max, which bucket upper bounds may overshoot).
	var h3 Histogram
	for _, v := range []float64{1, 2, 4, 8, 16} {
		h3.Observe(v)
	}
	s3 := h3.Snapshot()
	prev := 0.0
	for _, q := range []float64{0.2, 0.4, 0.6, 0.8} {
		v := s3.Quantile(q)
		if v < prev {
			t.Fatalf("quantile(%v) = %v < quantile at smaller q (%v)", q, v, prev)
		}
		prev = v
	}
	if s3.Quantile(0) != 1 || s3.Quantile(1) != 16 {
		t.Fatalf("edges = %v, %v, want exact min/max", s3.Quantile(0), s3.Quantile(1))
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("active.arrivals").Add(7)
	r.Gauge("depth").Set(3)
	r.Histogram("lat").Observe(50)

	s := r.Snapshot()
	if s.Counter("active.arrivals") != 7 {
		t.Fatalf("counter = %d", s.Counter("active.arrivals"))
	}
	if s.Counter("no.such.counter") != 0 {
		t.Fatal("missing counter should read 0")
	}
	if s.Gauges["depth"] != 3 {
		t.Fatalf("gauge = %d", s.Gauges["depth"])
	}
	h, ok := s.Histograms["lat"]
	if !ok || h.Count != 1 || h.Min != 50 || h.Max != 50 {
		t.Fatalf("histogram stats = %+v", h)
	}

	// The snapshot must be JSON-encodable and round-trip its contents.
	js, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("active.arrivals") != 7 || back.Histograms["lat"].Count != 1 {
		t.Fatalf("JSON round trip lost data: %+v", back)
	}

	// An empty registry snapshots to empty (omitted) maps, not a panic.
	var empty Snapshot = NewRegistry().Snapshot()
	if empty.Counter("x") != 0 {
		t.Fatal("empty snapshot counter should read 0")
	}
}

// Golden test: the JSON encoding of a Snapshot is deterministic (sorted
// map keys, stable field order), so dosasctl stats -json is diffable
// across runs. If this test breaks, the stats export format changed.
func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		// Register in an order unlike the sorted output, to prove sorting.
		r.Counter("zeta.count").Add(9)
		r.Counter("active.arrivals").Add(7)
		r.Counter("data.bytes_read").Add(4096)
		r.Gauge("queue.depth").Set(3)
		r.Gauge("data.inflight").Set(1)
		r.Histogram("lat").Observe(50)
		return r.Snapshot()
	}
	const golden = `{"counters":{"active.arrivals":7,"data.bytes_read":4096,"zeta.count":9},` +
		`"gauges":{"data.inflight":1,"queue.depth":3},` +
		`"histograms":{"lat":{"count":1,"mean":50,"min":50,"max":50,"p50":64,"p90":64,"p99":64}}}`
	first, err := json.Marshal(build())
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != golden {
		t.Fatalf("snapshot JSON drifted from golden:\n got %s\nwant %s", first, golden)
	}
	for i := 0; i < 10; i++ {
		again, err := json.Marshal(build())
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(first) {
			t.Fatalf("snapshot JSON not deterministic:\n %s\n vs\n %s", first, again)
		}
	}
}
