package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dosas/internal/trace"
)

// fakeClock steps a deterministic clock by a fixed interval per read.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func TestSamplerRecordsAndWindows(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0), step: 100 * time.Millisecond}
	s := NewSampler(Config{Capacity: 8, Now: clk.now})
	v := 0.0
	s.Register("q.depth", func() float64 { v++; return v })

	for i := 0; i < 5; i++ {
		s.Tick()
	}
	ser, ok := s.Get("q.depth", 0)
	if !ok || len(ser.Points) != 5 {
		t.Fatalf("got %d points, want 5", len(ser.Points))
	}
	for i, p := range ser.Points {
		if p.Value != float64(i+1) {
			t.Fatalf("point %d = %v, want %v (oldest-first order)", i, p.Value, i+1)
		}
	}
	if got := ser.Last().Value; got != 5 {
		t.Fatalf("Last = %v, want 5", got)
	}

	// A trailing window should exclude the older points. Each Tick and
	// each window computation consumes one clock step; ask for a window
	// that covers roughly the last two samples.
	ser, _ = s.Get("q.depth", 250*time.Millisecond)
	if len(ser.Points) == 0 || len(ser.Points) >= 5 {
		t.Fatalf("windowed fetch returned %d points, want a strict subset", len(ser.Points))
	}
}

func TestSamplerRingWraps(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0), step: time.Millisecond}
	s := NewSampler(Config{Capacity: 4, Now: clk.now})
	v := 0.0
	s.Register("x", func() float64 { v++; return v })
	for i := 0; i < 10; i++ {
		s.Tick()
	}
	ser, _ := s.Get("x", 0)
	if len(ser.Points) != 4 {
		t.Fatalf("got %d points, want capacity 4", len(ser.Points))
	}
	// Oldest retained is tick 7 (10 ticks, capacity 4).
	want := []float64{7, 8, 9, 10}
	for i, p := range ser.Points {
		if p.Value != want[i] {
			t.Fatalf("point %d = %v, want %v", i, p.Value, want[i])
		}
	}
	if max := ser.Max(); max != 10 {
		t.Fatalf("Max = %v, want 10", max)
	}
}

func TestSamplerSnapshotSorted(t *testing.T) {
	s := NewSampler(Config{Capacity: 4})
	s.Register("z.last", func() float64 { return 1 })
	s.Register("a.first", func() float64 { return 2 })
	s.Register("m.mid", func() float64 { return 3 })
	s.Tick()
	snap := s.Snapshot(0)
	if len(snap) != 3 {
		t.Fatalf("got %d series, want 3", len(snap))
	}
	if snap[0].Name != "a.first" || snap[1].Name != "m.mid" || snap[2].Name != "z.last" {
		t.Fatalf("series not sorted by name: %v %v %v", snap[0].Name, snap[1].Name, snap[2].Name)
	}
}

func TestNilSamplerIsSafe(t *testing.T) {
	var s *Sampler
	s.Register("x", func() float64 { return 1 })
	s.Start()
	s.Tick()
	if got := s.Snapshot(0); got != nil {
		t.Fatalf("nil sampler Snapshot = %v, want nil", got)
	}
	if _, ok := s.Get("x", 0); ok {
		t.Fatal("nil sampler Get ok = true")
	}
	s.Close()
}

func TestSamplerStartClose(t *testing.T) {
	s := NewSampler(Config{Interval: time.Millisecond, Capacity: 16})
	s.Register("x", func() float64 { return 1 })
	s.Start()
	deadline := time.Now().Add(2 * time.Second)
	for s.Ticks() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Ticks() == 0 {
		t.Fatal("sampler never ticked")
	}
	s.Close()
	s.Close() // idempotent
}

func TestDeltaAndRateProbes(t *testing.T) {
	v := 0.0
	d := DeltaProbe(func() float64 { return v })
	if got := d(); got != 0 {
		t.Fatalf("first delta = %v, want 0 (priming)", got)
	}
	v = 10
	if got := d(); got != 10 {
		t.Fatalf("delta = %v, want 10", got)
	}
	v = 4 // counter reset
	if got := d(); got != 0 {
		t.Fatalf("delta after reset = %v, want clamped 0", got)
	}

	v = 0
	r := RateProbe(func() float64 { return v }, 100*time.Millisecond)
	r() // prime
	v = 50
	if got := r(); got != 500 {
		t.Fatalf("rate = %v, want 500/s (50 per 100ms)", got)
	}
}

func TestRatioProbe(t *testing.T) {
	num, den := 0.0, 0.0
	p := RatioProbe(func() float64 { return num }, func() float64 { return den })
	if got := p(); got != 0 {
		t.Fatalf("ratio with zero denominator = %v, want 0", got)
	}
	num, den = 3, 4
	if got := p(); got != 0.75 {
		t.Fatalf("ratio = %v, want 0.75", got)
	}
}

func TestSeriesJSONRoundTrip(t *testing.T) {
	in := []Series{
		{Name: "q.depth", Points: []Point{{UnixNano: 1, Value: 2.5}, {UnixNano: 2, Value: 3}}},
		{Name: "bounce.rate", Points: nil},
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []Series
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Name != "q.depth" || len(out[0].Points) != 2 || out[0].Points[0].Value != 2.5 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestHealthReportSummarize(t *testing.T) {
	h := HealthReport{Node: "data-0", Role: "data", Checks: []Check{
		{Name: "store", OK: true},
		{Name: "queue", OK: true},
	}}.Summarize()
	if !h.Ready {
		t.Fatal("all-ok report not Ready")
	}
	h.Checks = append(h.Checks, Check{Name: "memory", OK: false, Detail: "pressure 0.97"})
	h = h.Summarize()
	if h.Ready {
		t.Fatal("report with failing check still Ready")
	}
	if f := h.Failing(); len(f) != 1 || f[0] != "memory" {
		t.Fatalf("Failing = %v, want [memory]", f)
	}
}

func TestChecksJSONRoundTrip(t *testing.T) {
	in := []Check{{Name: "queue", OK: false, Detail: "depth 9 >= 8"}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []Check
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != in[0] {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestSlowDetector(t *testing.T) {
	// Absolute threshold only.
	d := NewSlowDetector(10*time.Millisecond, 0, 8)
	if slow, _, _ := d.Observe(5 * time.Millisecond); slow {
		t.Fatal("fast request flagged slow")
	}
	slow, _, reason := d.Observe(20 * time.Millisecond)
	if !slow || reason != "absolute" {
		t.Fatalf("slow=%v reason=%q, want true/absolute", slow, reason)
	}

	// Factor-of-median: prime the history, then spike.
	d = NewSlowDetector(0, 3, 8)
	for i := 0; i < 6; i++ {
		if slow, _, _ := d.Observe(time.Millisecond); slow {
			t.Fatal("baseline request flagged slow")
		}
	}
	slow, median, reason := d.Observe(10 * time.Millisecond)
	if !slow || reason != "factor" || median != time.Millisecond {
		t.Fatalf("slow=%v median=%v reason=%q, want true/1ms/factor", slow, median, reason)
	}
	// After the 8-slot history wraps, the median is of the last 8
	// latencies only: 5..12 ms after observing 1..12 ms.
	d = NewSlowDetector(0, 3, 8)
	for i := 1; i <= 12; i++ {
		d.Observe(time.Duration(i) * time.Millisecond)
	}
	slow, median, reason = d.Observe(100 * time.Millisecond)
	if !slow || reason != "factor" || median != 9*time.Millisecond {
		t.Fatalf("after the wrap: slow=%v median=%v reason=%q, want true/9ms/factor", slow, median, reason)
	}
	if !d.Enabled() {
		t.Fatal("detector with factor not Enabled")
	}
	if NewSlowDetector(0, 0, 0).Enabled() {
		t.Fatal("zero-criteria detector Enabled")
	}
}

func TestFlightRecorderBoundsAndDisk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "slow")
	fr, err := NewFlightRecorder(FlightConfig{Capacity: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		b := Bundle{
			TraceID: uint64(i),
			Op:      "wordcount",
			Elapsed: time.Duration(i) * time.Millisecond,
			Reason:  "absolute",
			Timeline: []trace.Event{
				{Seq: 1, Kind: trace.KindIssue, TraceID: uint64(i), Node: "client"},
			},
			Series: []Series{{Name: "pending", Points: []Point{{UnixNano: 1, Value: 1}}}},
		}
		if err := fr.Capture(b); err != nil {
			t.Fatal(err)
		}
	}
	if fr.Len() != 2 {
		t.Fatalf("in-memory journal holds %d, want capacity 2", fr.Len())
	}
	got := fr.Bundles()
	if got[0].TraceID != 2 || got[1].TraceID != 3 {
		t.Fatalf("retained traces %d,%d; want oldest evicted (2,3)", got[0].TraceID, got[1].TraceID)
	}

	disk, err := ReadBundles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(disk) != 2 || disk[0].TraceID != 2 || disk[1].TraceID != 3 {
		t.Fatalf("disk journal %+v, want pruned to traces 2,3", disk)
	}
	if len(disk[0].Timeline) != 1 || disk[0].Timeline[0].Kind != trace.KindIssue {
		t.Fatalf("timeline did not survive disk round trip: %+v", disk[0].Timeline)
	}

	// Far past capacity the journal holds the newest bundles, oldest first.
	mem, err := NewFlightRecorder(FlightConfig{Capacity: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 7; i++ {
		if err := mem.Capture(Bundle{TraceID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var ids []uint64
	for _, b := range mem.Bundles() {
		ids = append(ids, b.TraceID)
	}
	if len(ids) != 3 || ids[0] != 5 || ids[1] != 6 || ids[2] != 7 || mem.Len() != 3 {
		t.Fatalf("after 7 captures into 3 slots: traces %v (Len %d), want [5 6 7]", ids, mem.Len())
	}

	// Missing directory reads as empty.
	if got, err := ReadBundles(filepath.Join(t.TempDir(), "nope")); err != nil || len(got) != 0 {
		t.Fatalf("missing dir = %v, %v; want empty, nil", got, err)
	}
}

func TestNilFlightRecorderIsSafe(t *testing.T) {
	var fr *FlightRecorder
	if err := fr.Capture(Bundle{TraceID: 1}); err != nil {
		t.Fatal(err)
	}
	if fr.Len() != 0 || fr.Bundles() != nil {
		t.Fatal("nil recorder retained something")
	}
}

func TestFormatBundle(t *testing.T) {
	b := Bundle{
		TraceID:     7,
		Op:          "grep",
		Bytes:       1024,
		Elapsed:     42 * time.Millisecond,
		Median:      4 * time.Millisecond,
		Reason:      "factor",
		Disposition: "bounced",
		Timeline:    []trace.Event{{Seq: 1, Kind: trace.KindIssue, Node: "client", Op: "grep"}},
		Series:      []Series{{Name: "asc.pending", Points: []Point{{UnixNano: 1, Value: 2}}}},
	}
	out := FormatBundle(b)
	for _, want := range []string{"trace 7", "op=grep", "reason=factor", "disposition=bounced", "timeline:", "telemetry window:", "asc.pending"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatBundle output missing %q:\n%s", want, out)
		}
	}
}

func TestSamplerDroppedCountsOverwrites(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0), step: time.Millisecond}
	s := NewSampler(Config{Capacity: 4, Now: clk.now})
	s.Register("a", func() float64 { return 1 })
	s.Register("b", func() float64 { return 2 })
	for i := 0; i < 4; i++ {
		s.Tick()
	}
	if s.Dropped() != 0 {
		t.Fatalf("Dropped before wrap = %d, want 0", s.Dropped())
	}
	for i := 0; i < 3; i++ {
		s.Tick()
	}
	// Each wrapped tick overwrites one point in each of the two rings.
	if s.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", s.Dropped())
	}
	var nilSampler *Sampler
	if nilSampler.Dropped() != 0 {
		t.Fatal("nil Dropped should be 0")
	}
}

func TestSamplerOnTick(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0), step: time.Millisecond}
	s := NewSampler(Config{Capacity: 4, Now: clk.now})
	s.Register("x", func() float64 { return 1 })
	var calls int
	var sawPoints int
	s.OnTick(func() {
		calls++
		// The tick's sample must already be visible to listeners.
		ser, _ := s.Get("x", 0)
		sawPoints = len(ser.Points)
	})
	s.Tick()
	s.Tick()
	if calls != 2 || sawPoints != 2 {
		t.Fatalf("calls = %d points = %d, want 2 and 2", calls, sawPoints)
	}
	var nilSampler *Sampler
	nilSampler.OnTick(func() {}) // must not panic
	s.OnTick(nil)                // ignored
	s.Tick()
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestFlightRecorderByteBudget(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "slow")
	clk := &fakeClock{t: time.Unix(2000, 0), step: time.Second}
	// Large capacity so only the byte budget prunes. Each bundle's JSON
	// is ~300 bytes with the padded op below.
	fr, err := NewFlightRecorder(FlightConfig{Capacity: 100, Dir: dir, DirMaxBytes: 1000, Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 200)
	for i := 0; i < 8; i++ {
		if err := fr.Capture(Bundle{TraceID: uint64(i + 1), Op: pad}); err != nil {
			t.Fatal(err)
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "slow-*.json"))
	var total int64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	if total > 1000 {
		t.Fatalf("journal size = %d bytes, want <= 1000", total)
	}
	if len(files) == 0 {
		t.Fatal("budget pruning removed every bundle; newest must survive")
	}
	// The survivors are the newest bundles.
	got, err := ReadBundles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got[len(got)-1].TraceID != 8 {
		t.Fatalf("newest bundle = trace %d, want 8", got[len(got)-1].TraceID)
	}
	// In-memory journal is untouched by disk pruning.
	if fr.Len() != 8 {
		t.Fatalf("in-memory Len = %d, want 8", fr.Len())
	}
}

func TestFlightRecorderNegativeBudgetUnbounded(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "slow")
	fr, err := NewFlightRecorder(FlightConfig{Capacity: 100, Dir: dir, DirMaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("y", 200)
	for i := 0; i < 5; i++ {
		if err := fr.Capture(Bundle{TraceID: uint64(i + 1), Op: pad}); err != nil {
			t.Fatal(err)
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "slow-*.json"))
	if len(files) != 5 {
		t.Fatalf("unbounded journal kept %d files, want 5", len(files))
	}
}
