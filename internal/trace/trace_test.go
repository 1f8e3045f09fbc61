package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecordAndSnapshot(t *testing.T) {
	r := NewRecorder(64)
	r.Record(KindArrive, 1, "sum8", 100, "")
	r.Record(KindAdmit, 1, "sum8", 100, "")
	r.Record(KindComplete, 1, "sum8", 100, "ok")
	evs := r.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Kind != KindArrive || evs[2].Kind != KindComplete {
		t.Errorf("order wrong: %v, %v", evs[0].Kind, evs[2].Kind)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Error("sequence numbers not increasing")
		}
	}
	if r.Len() != 3 {
		t.Errorf("len = %d", r.Len())
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRecorder(16)
	for i := 0; i < 40; i++ {
		r.Record(KindArrive, uint64(i), "op", 1, "")
	}
	evs := r.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("retained %d, want 16", len(evs))
	}
	if evs[0].ReqID != 24 || evs[15].ReqID != 39 {
		t.Errorf("retained window [%d, %d]", evs[0].ReqID, evs[15].ReqID)
	}
}

func TestDroppedCountsEvictions(t *testing.T) {
	r := NewRecorder(16)
	for i := 0; i < 16; i++ {
		r.Record(KindArrive, uint64(i), "op", 1, "")
	}
	if r.Dropped() != 0 {
		t.Fatalf("dropped = %d before the ring wrapped, want 0", r.Dropped())
	}
	for i := 16; i < 40; i++ {
		r.Record(KindArrive, uint64(i), "op", 1, "")
	}
	if r.Dropped() != 24 {
		t.Fatalf("dropped = %d, want 24 (40 recorded, 16 retained)", r.Dropped())
	}
	var nr *Recorder
	if nr.Dropped() != 0 {
		t.Error("nil recorder Dropped != 0")
	}
	// WriteTo surfaces the eviction so operators see incompleteness.
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "24 older events dropped") {
		t.Errorf("WriteTo output missing dropped trailer:\n%s", sb.String())
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(KindArrive, 1, "x", 0, "") // must not panic
	if r.Snapshot() != nil || r.Len() != 0 {
		t.Error("nil recorder should be empty")
	}
}

func TestHistoryFiltersByRequest(t *testing.T) {
	r := NewRecorder(64)
	r.Record(KindArrive, 1, "a", 0, "")
	r.Record(KindArrive, 2, "b", 0, "")
	r.Record(KindComplete, 1, "a", 0, "")
	h := r.History(1)
	if len(h) != 2 || h[0].Kind != KindArrive || h[1].Kind != KindComplete {
		t.Fatalf("history = %+v", h)
	}
}

func TestWriteTo(t *testing.T) {
	r := NewRecorder(16)
	r.now = func() time.Time { return time.Unix(0, 0) }
	r.Record(KindInterrupt, 7, "gaussian2d", 1024, "policy flip")
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"req=7", "interrupt", "op=gaussian2d", "bytes=1024", "policy flip"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KindArrive, KindAdmit, KindReject, KindStart,
		KindInterrupt, KindMigrate, KindComplete, KindCancel, KindTransform}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(KindArrive, uint64(g), "op", 1, "")
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 128 {
		t.Errorf("len = %d", r.Len())
	}
	evs := r.Snapshot()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatal("snapshot not in sequence order after concurrent writes")
		}
	}
}

func TestRecordEventFillsIdentity(t *testing.T) {
	r := NewRecorder(16)
	r.SetNode("data-3")
	if r.Node() != "data-3" {
		t.Fatalf("node = %q", r.Node())
	}
	r.RecordEvent(Event{
		Kind: KindStart, TraceID: 0xBEEF, ReqID: 5, Op: "sum8", Bytes: 4096,
		Phase: PhaseQueueWait, Dur: 3 * time.Millisecond, Predicted: 2 * time.Millisecond,
	})
	evs := r.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("events = %d", len(evs))
	}
	e := evs[0]
	if e.Seq == 0 || e.Time.IsZero() {
		t.Errorf("seq/time not filled: %+v", e)
	}
	if e.Node != "data-3" || e.TraceID != 0xBEEF || e.Phase != PhaseQueueWait {
		t.Errorf("identity fields wrong: %+v", e)
	}
	// An explicit Node wins over the recorder's.
	r.RecordEvent(Event{Kind: KindIssue, Node: "client", ReqID: 6})
	if got := r.Snapshot()[1].Node; got != "client" {
		t.Errorf("explicit node overridden: %q", got)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	r := NewRecorder(16)
	r.SetNode("data-0")
	r.RecordEvent(Event{
		Kind: KindComplete, TraceID: 7, ReqID: 1, Op: "gaussian2d", Bytes: 1 << 20,
		Phase: PhaseKernel, Dur: 10 * time.Millisecond, Predicted: 9 * time.Millisecond,
		Note: "estimator error 11%",
	})
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Kind must render as its name, not a bare number.
	if !strings.Contains(buf.String(), `"kind":"complete"`) {
		t.Fatalf("kind not a string name:\n%s", buf.String())
	}
	var evs []Event
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 {
		t.Fatalf("decoded %d events", len(evs))
	}
	want := r.Snapshot()[0]
	got := evs[0]
	// time.Time loses monotonic clock reading through JSON; compare instants.
	if !got.Time.Equal(want.Time) {
		t.Errorf("time = %v, want %v", got.Time, want.Time)
	}
	got.Time = want.Time
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestEncodeDecodeEvents(t *testing.T) {
	// An empty recorder's JSON dump is an empty array, not JSON null.
	var buf bytes.Buffer
	if err := NewRecorder(16).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Fatalf("empty recorder dumped as %q", got)
	}
	var evs []Event
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil || evs == nil || len(evs) != 0 {
		t.Fatalf("decode empty array: %v, %v", err, evs)
	}
}

func TestHistoryTraceFiltersByTraceID(t *testing.T) {
	r := NewRecorder(64)
	r.RecordEvent(Event{Kind: KindArrive, TraceID: 1, ReqID: 10})
	r.RecordEvent(Event{Kind: KindArrive, TraceID: 2, ReqID: 11})
	r.RecordEvent(Event{Kind: KindComplete, TraceID: 1, ReqID: 10})
	h := r.HistoryTrace(1)
	if len(h) != 2 || h[0].Kind != KindArrive || h[1].Kind != KindComplete {
		t.Fatalf("history = %+v", h)
	}
	if got := r.HistoryTrace(99); len(got) != 0 {
		t.Fatalf("unknown trace returned %d events", len(got))
	}
}

func TestNilRecorderObservability(t *testing.T) {
	var r *Recorder
	r.SetNode("x") // must not panic
	if r.Node() != "" {
		t.Error("nil recorder node should be empty")
	}
	r.RecordEvent(Event{Kind: KindStart, TraceID: 1}) // must not panic
	if got := r.HistoryTrace(1); got != nil {
		t.Errorf("nil recorder history = %v", got)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Errorf("nil recorder JSON = %q, want []", buf.String())
	}
}

func TestKindJSONRoundTrip(t *testing.T) {
	for k := range kindNames {
		js, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := json.Unmarshal(js, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Errorf("kind %v round-tripped to %v", k, back)
		}
	}
	// Unregistered kinds survive via the kind(N) fallback.
	js, err := json.Marshal(Kind(200))
	if err != nil {
		t.Fatal(err)
	}
	var back Kind
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if back != Kind(200) {
		t.Errorf("fallback kind = %v", back)
	}
	if err := json.Unmarshal([]byte(`"no-such-kind"`), &back); err == nil {
		t.Error("unknown kind name accepted")
	}
}
