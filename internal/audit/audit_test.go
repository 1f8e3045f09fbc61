package audit

import (
	"reflect"
	"testing"
	"time"
)

func rec(trigger string, reqs ...Feature) Record {
	return Record{
		Solver:  "maxgain",
		Trigger: trigger,
		Env:     Env{BW: 118e6, StorageRate: 80e6, ComputeRate: 80e6},
		Reqs:    reqs,
	}
}

func newcomer(trace uint64, accept bool) Feature {
	return Feature{
		SchedID: 1, ReqID: 1, TraceID: trace, Op: "gaussian2d",
		Bytes: 128e6, ResultBytes: 29,
		PredActive: 1.6, PredNormal: 1.085, PredClient: 1.6,
		Accept: accept, Newcomer: true,
	}
}

func TestLogAppendResolveSnapshot(t *testing.T) {
	l := NewLog(8)
	l.SetNode("data-0")
	seq := l.Append(rec(TriggerAdmit, newcomer(0xa1, true)))
	if seq != 1 {
		t.Fatalf("first seq = %d", seq)
	}
	if !l.Resolve(seq, Outcome{Disposition: DispDone, KernelNS: 1_600_000_000}) {
		t.Fatal("resolve failed")
	}
	snap := l.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot len %d", len(snap))
	}
	r := snap[0]
	if r.Node != "data-0" || r.TimeUnixNano == 0 {
		t.Errorf("record not stamped: %+v", r)
	}
	if r.Outcome == nil || r.Outcome.Disposition != DispDone {
		t.Errorf("outcome = %+v", r.Outcome)
	}
	if nc := r.Newcomer(); nc == nil || nc.TraceID != 0xa1 {
		t.Errorf("newcomer = %+v", nc)
	}
	// Snapshots must not alias the ring.
	snap[0].Outcome.Disposition = "tampered"
	snap[0].Reqs[0].Op = "tampered"
	again := l.Snapshot()
	if again[0].Outcome.Disposition != DispDone || again[0].Reqs[0].Op != "gaussian2d" {
		t.Error("snapshot aliases the ring")
	}
}

func TestLogRingWrapAndDropped(t *testing.T) {
	l := NewLog(4)
	var seqs []uint64
	for i := 0; i < 10; i++ {
		seqs = append(seqs, l.Append(rec(TriggerAdmit, newcomer(uint64(i), true))))
	}
	if l.Len() != 4 {
		t.Fatalf("len = %d", l.Len())
	}
	if l.Dropped() != 6 {
		t.Fatalf("dropped = %d", l.Dropped())
	}
	snap := l.Snapshot()
	for i, r := range snap {
		if want := seqs[6+i]; r.Seq != want {
			t.Errorf("snap[%d].Seq = %d, want %d", i, r.Seq, want)
		}
	}
	// Overwritten records can no longer be resolved; retained ones can.
	if l.Resolve(seqs[0], Outcome{Disposition: DispDone}) {
		t.Error("resolved an overwritten record")
	}
	if !l.Resolve(seqs[9], Outcome{Disposition: DispDone}) {
		t.Error("failed to resolve a retained record")
	}
	// The oldest retained record, the last one a scan from the newest
	// reaches, still resolves; the one just before it does not.
	if !l.Resolve(seqs[6], Outcome{Disposition: DispBounced}) {
		t.Error("failed to resolve the oldest retained record")
	}
	if l.Resolve(seqs[5], Outcome{Disposition: DispDone}) {
		t.Error("resolved the newest overwritten record")
	}
	snap = l.Snapshot()
	if o := snap[0].Outcome; o == nil || o.Disposition != DispBounced {
		t.Errorf("oldest retained outcome = %+v, want %s", o, DispBounced)
	}
	for i := 1; i < 3; i++ {
		if snap[i].Outcome != nil {
			t.Errorf("snap[%d] (seq %d) resolved, want untouched", i, snap[i].Seq)
		}
	}
	if o := snap[3].Outcome; o == nil || o.Disposition != DispDone {
		t.Errorf("newest outcome = %+v, want %s", o, DispDone)
	}
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	if seq := l.Append(rec(TriggerAdmit)); seq != 0 {
		t.Errorf("nil append seq = %d", seq)
	}
	if l.Resolve(1, Outcome{}) {
		t.Error("nil resolve succeeded")
	}
	if l.Snapshot() != nil || l.Len() != 0 || l.Dropped() != 0 || l.Node() != "" {
		t.Error("nil log not inert")
	}
	l.SetNode("x") // must not panic
}

func TestResolveZeroSeqIsNoop(t *testing.T) {
	l := NewLog(2)
	l.Append(rec(TriggerAdmit, newcomer(1, true)))
	if l.Resolve(0, Outcome{Disposition: DispDone}) {
		t.Error("seq 0 resolved")
	}
	if l.Snapshot()[0].Outcome != nil {
		t.Error("seq 0 touched a record")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	l := NewLog(8)
	l.SetNode("data-1")
	s1 := l.Append(rec(TriggerAdmit, newcomer(0xbeef, false)))
	l.Append(rec(TriggerReevaluate, Feature{SchedID: 7, Op: "sum8", Bytes: 1e6, Accept: true}))
	l.Resolve(s1, Outcome{Disposition: DispBounced})
	want := l.Snapshot()
	data, err := EncodeRecords(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Empty inputs stay well-defined.
	if b, err := EncodeRecords(nil); err != nil || string(b) != "[]" {
		t.Errorf("EncodeRecords(nil) = %q, %v", b, err)
	}
	if r, err := DecodeRecords(nil); err != nil || r != nil {
		t.Errorf("DecodeRecords(nil) = %v, %v", r, err)
	}
	if _, err := DecodeRecords([]byte("{not json")); err == nil {
		t.Error("garbage decoded")
	}
}

func TestLastAndFilterTrace(t *testing.T) {
	var records []Record
	for i := 1; i <= 5; i++ {
		r := rec(TriggerAdmit, newcomer(uint64(i), true))
		r.Seq = uint64(i)
		records = append(records, r)
	}
	if got := Last(records, 2); len(got) != 2 || got[0].Seq != 4 {
		t.Errorf("Last(2) = %+v", got)
	}
	if got := Last(records, 0); len(got) != 5 {
		t.Errorf("Last(0) truncated to %d", len(got))
	}
	if got := Last(records, 99); len(got) != 5 {
		t.Errorf("Last(99) = %d records", len(got))
	}
	if got := FilterTrace(records, 3); len(got) != 1 || got[0].Seq != 3 {
		t.Errorf("FilterTrace = %+v", got)
	}
	if got := FilterTrace(records, 42); got != nil {
		t.Errorf("FilterTrace(miss) = %+v", got)
	}
}

func TestAppendStampsTime(t *testing.T) {
	l := NewLog(2)
	fixed := time.Unix(1_700_000_000, 42)
	l.now = func() time.Time { return fixed }
	l.Append(rec(TriggerAdmit))
	if got := l.Snapshot()[0].TimeUnixNano; got != fixed.UnixNano() {
		t.Errorf("stamped %d, want %d", got, fixed.UnixNano())
	}
	// A caller-provided timestamp is preserved.
	r := rec(TriggerAdmit)
	r.TimeUnixNano = 7
	l.Append(r)
	if got := l.Snapshot()[1].TimeUnixNano; got != 7 {
		t.Errorf("caller timestamp overwritten: %d", got)
	}
}
