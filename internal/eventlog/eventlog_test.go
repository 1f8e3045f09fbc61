package eventlog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedClock yields deterministic, strictly increasing timestamps.
func fixedClock() func() time.Time {
	t := time.Unix(1000, 0)
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

func TestNilLogIsNoOp(t *testing.T) {
	var l *Log
	l.Info("sub", "msg", "k", "v")
	l.Error("sub", "boom")
	if got := l.Snapshot(0, Debug, 0); got != nil {
		t.Fatalf("nil Snapshot = %v, want nil", got)
	}
	if l.Dropped() != 0 || l.NextSeq() != 1 {
		t.Fatal("nil counters wrong")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestRingBoundAndDropped(t *testing.T) {
	l, err := New(Config{Node: "data-0", Capacity: 4, Now: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.Info("test", "event")
	}
	got := l.Snapshot(0, Debug, 0)
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	// Oldest first, and only the last 4 survive.
	for i, ev := range got {
		if want := uint64(7 + i); ev.Seq != want {
			t.Errorf("event %d Seq = %d, want %d", i, ev.Seq, want)
		}
	}
	if l.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", l.Dropped())
	}
	if l.NextSeq() != 11 {
		t.Errorf("NextSeq = %d, want 11", l.NextSeq())
	}
	// Cursors and limits over the wrapped ring, whose oldest event sits
	// mid-buffer: the cursor skips by Seq, the limit keeps the newest.
	for _, tc := range []struct {
		since uint64
		limit int
		want  []uint64
	}{
		{since: 3, want: []uint64{7, 8, 9, 10}},
		{since: 8, want: []uint64{9, 10}},
		{since: 8, limit: 1, want: []uint64{10}},
		{since: 0, limit: 3, want: []uint64{8, 9, 10}},
		{since: 10, want: nil},
	} {
		var seqs []uint64
		for _, ev := range l.Snapshot(tc.since, Debug, tc.limit) {
			seqs = append(seqs, ev.Seq)
		}
		if fmt.Sprint(seqs) != fmt.Sprint(tc.want) {
			t.Errorf("Snapshot(%d, Debug, %d) seqs %v, want %v", tc.since, tc.limit, seqs, tc.want)
		}
	}
}

func TestLevelFilterAndCursor(t *testing.T) {
	l, err := New(Config{Capacity: 16, MinLevel: Info, Now: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	l.Debug("s", "dropped before ring") // below MinLevel
	l.Info("s", "a")
	l.Warn("s", "b")
	l.Error("s", "c")
	if got := l.Snapshot(0, Debug, 0); len(got) != 3 {
		t.Fatalf("all levels: len = %d, want 3", len(got))
	}
	warnUp := l.Snapshot(0, Warn, 0)
	if len(warnUp) != 2 || warnUp[0].Msg != "b" || warnUp[1].Msg != "c" {
		t.Fatalf("warn+ = %+v", warnUp)
	}
	// Cursor: resume after the first retained event.
	first := l.Snapshot(0, Debug, 0)[0]
	rest := l.Snapshot(first.Seq, Debug, 0)
	if len(rest) != 2 || rest[0].Msg != "b" {
		t.Fatalf("cursor resume = %+v", rest)
	}
	// Limit keeps the newest events.
	last := l.Snapshot(0, Debug, 1)
	if len(last) != 1 || last[0].Msg != "c" {
		t.Fatalf("limit = %+v", last)
	}
}

func TestFieldsOrderAndCodec(t *testing.T) {
	l, err := New(Config{Capacity: 4, Now: fixedClock(), Node: "meta"})
	if err != nil {
		t.Fatal(err)
	}
	l.Warn("slo", "rule pending", "rule", "bounce-burn", "value", "0.12", "odd")
	ev := l.Snapshot(0, Debug, 0)[0]
	if len(ev.Fields) != 3 || ev.Fields[0].K != "rule" || ev.Fields[1].V != "0.12" ||
		ev.Fields[2].K != "odd" || ev.Fields[2].V != "" {
		t.Fatalf("fields = %+v", ev.Fields)
	}
	enc, err := json.Marshal([]Event{ev})
	if err != nil {
		t.Fatal(err)
	}
	var dec []Event
	if err := json.Unmarshal(enc, &dec); err != nil {
		t.Fatal(err)
	}
	if len(dec) != 1 || dec[0].Seq != ev.Seq || dec[0].Fields[0].V != "bounce-burn" {
		t.Fatalf("decode = %+v", dec)
	}
	line := FormatEvent(ev)
	for _, want := range []string{"WARN", "meta/slo", "rule pending", "rule=bounce-burn"} {
		if !strings.Contains(line, want) {
			t.Errorf("FormatEvent %q missing %q", line, want)
		}
	}
}

func TestFileSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	var mirror strings.Builder
	l, err := New(Config{Capacity: 8, Path: path, Mirror: &mirror, Now: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	l.Info("boot", "listening", "addr", "127.0.0.1:9")
	l.Error("boot", "bind failed")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink lines = %d, want 2\n%s", len(lines), data)
	}
	var evs []Event
	if err := json.Unmarshal([]byte("["+strings.Join(lines, ",")+"]"), &evs); err != nil {
		t.Fatalf("sink lines not JSON events: %v", err)
	}
	if evs[1].Level != "error" || evs[1].Msg != "bind failed" {
		t.Fatalf("sink event = %+v", evs[1])
	}
	if !strings.Contains(mirror.String(), "listening addr=127.0.0.1:9") {
		t.Errorf("mirror = %q", mirror.String())
	}
}

func TestParseLevel(t *testing.T) {
	for want, name := range map[Level]string{Debug: "debug", Info: "INFO", Warn: "Warn", Error: "error"} {
		got, err := ParseLevel(name)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseLevel("fatal"); err == nil {
		t.Error("ParseLevel(fatal) should fail")
	}
}

func TestMerge(t *testing.T) {
	a := []Event{{Seq: 1, UnixNano: 10, Node: "data-0"}, {Seq: 2, UnixNano: 30, Node: "data-0"}}
	b := []Event{{Seq: 1, UnixNano: 20, Node: "data-1"}, {Seq: 2, UnixNano: 10, Node: "data-1"}}
	got := Merge(a, b)
	order := make([]string, len(got))
	for i, ev := range got {
		order[i] = ev.Node
	}
	want := []string{"data-0", "data-1", "data-1", "data-0"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("merge order = %v, want %v", order, want)
		}
	}
}

func TestConcurrentLogging(t *testing.T) {
	l, err := New(Config{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Info("stress", "event", "g", "x")
				l.Snapshot(0, Debug, 8)
			}
		}()
	}
	wg.Wait()
	if l.NextSeq() != 801 {
		t.Fatalf("NextSeq = %d, want 801", l.NextSeq())
	}
	if l.Dropped() != 800-64 {
		t.Fatalf("Dropped = %d, want %d", l.Dropped(), 800-64)
	}
}

// The file sink rotates at half its byte budget, keeping at most the
// live file plus one predecessor — newest events always survive, total
// footprint stays under the cap.
func TestFileSinkRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	l, err := New(Config{Capacity: 8, Path: path, MaxBytes: 4 << 10, Now: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 100)
	for i := 0; i < 200; i++ {
		l.Info("spam", "filler", "i", fmt.Sprint(i), "pad", pad)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	live, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(path + ".1")
	if err != nil {
		t.Fatalf("rotation never happened: %v", err)
	}
	if total := len(live) + len(prev); total > 4<<10 {
		t.Fatalf("sink footprint %d exceeds 4KiB budget", total)
	}
	// The newest event must be the last line of the live file.
	lines := strings.Split(strings.TrimSpace(string(live)), "\n")
	if !strings.Contains(lines[len(lines)-1], `"v":"199"`) {
		t.Fatalf("newest event missing from live file: %q", lines[len(lines)-1])
	}
	// And the two files are contiguous: first line of live follows the
	// last line of the predecessor with no gap in the padded counter.
	prevLines := strings.Split(strings.TrimSpace(string(prev)), "\n")
	var a, b Event
	if err := json.Unmarshal([]byte(prevLines[len(prevLines)-1]), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[0]), &b); err != nil {
		t.Fatal(err)
	}
	if b.Seq != a.Seq+1 {
		t.Fatalf("rotation dropped events: ...%d | %d...", a.Seq, b.Seq)
	}
}

// A negative MaxBytes disables rotation entirely.
func TestFileSinkUnbounded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	l, err := New(Config{Capacity: 8, Path: path, MaxBytes: -1, Now: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		l.Info("spam", "filler", "pad", strings.Repeat("y", 200))
	}
	l.Close()
	if _, err := os.Stat(path + ".1"); !os.IsNotExist(err) {
		t.Fatalf("unbounded sink rotated: %v", err)
	}
}
