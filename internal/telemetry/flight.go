package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dosas/internal/ring"
	"dosas/internal/trace"
)

// Bundle is one slow-request diagnostic capture: everything an operator
// needs to answer "why was trace N slow" after the fact — the stitched
// cross-node timeline, the storage node's disposition, and the client's
// telemetry window surrounding the request.
type Bundle struct {
	TraceID  uint64        `json:"trace_id"`
	Op       string        `json:"op"`
	Tenant   string        `json:"tenant,omitempty"`
	Bytes    uint64        `json:"bytes,omitempty"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	Median   time.Duration `json:"median_ns,omitempty"`
	Captured time.Time     `json:"captured"`
	// Reason says which threshold fired: "absolute" or "factor".
	Reason string `json:"reason"`
	// Disposition is the storage-side outcome summary (e.g.
	// "completed-on-storage", "bounced").
	Disposition string `json:"disposition,omitempty"`
	// Timeline is the stitched cross-node trace for this TraceID.
	Timeline []trace.Event `json:"timeline,omitempty"`
	// Series is the client sampler's window around the request.
	Series []Series `json:"series,omitempty"`
}

// FlightConfig parameterises a FlightRecorder.
type FlightConfig struct {
	// Capacity bounds the in-memory journal (default 16).
	Capacity int
	// Dir, when set, additionally persists each bundle as
	// slow-<traceid>.json under this directory so other processes
	// (dosasctl slow) can read them; the directory is pruned to Capacity
	// files, oldest first.
	Dir string
	// DirMaxBytes bounds the total size of the on-disk journal (default
	// DefaultDirMaxBytes; negative disables the byte budget). Oldest
	// bundles are pruned first, so a long contention storm rotates the
	// journal instead of filling the disk.
	DirMaxBytes int64
	// Now overrides the clock, for tests.
	Now func() time.Time
}

// DefaultDirMaxBytes is the default on-disk flight-journal byte budget.
const DefaultDirMaxBytes = 64 << 20

// FlightRecorder is the bounded slow-request journal. A nil
// *FlightRecorder is valid and drops every capture.
type FlightRecorder struct {
	capacity int
	dir      string
	maxBytes int64
	now      func() time.Time

	mu      sync.Mutex
	bundles *ring.Ring[Bundle]
}

// NewFlightRecorder returns a recorder journaling at most cfg.Capacity
// bundles in memory (and on disk, when cfg.Dir is set).
func NewFlightRecorder(cfg FlightConfig) (*FlightRecorder, error) {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 16
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.DirMaxBytes == 0 {
		cfg.DirMaxBytes = DefaultDirMaxBytes
	}
	if cfg.DirMaxBytes < 0 {
		cfg.DirMaxBytes = 0 // negative means unbounded
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("telemetry: flight dir: %w", err)
		}
	}
	return &FlightRecorder{capacity: cfg.Capacity, dir: cfg.Dir, maxBytes: cfg.DirMaxBytes, now: cfg.Now,
		bundles: ring.New[Bundle](cfg.Capacity)}, nil
}

// Capture journals one bundle, evicting the oldest past capacity. Disk
// write failures are reported but the in-memory journal still retains
// the bundle.
func (fr *FlightRecorder) Capture(b Bundle) error {
	if fr == nil {
		return nil
	}
	if b.Captured.IsZero() {
		b.Captured = fr.now()
	}
	fr.mu.Lock()
	fr.bundles.Add(b)
	fr.mu.Unlock()
	if fr.dir == "" {
		return nil
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	name := filepath.Join(fr.dir, fmt.Sprintf("slow-%016x-%d.json", b.TraceID, b.Captured.UnixNano()))
	if err := os.WriteFile(name, data, 0o644); err != nil {
		return err
	}
	return fr.pruneDir()
}

// pruneDir removes the oldest slow-*.json files until both the file
// count is within capacity and the total size is within the byte
// budget. File names embed the capture nanos, so lexical order is
// capture order; the newest bundle is always kept even when it alone
// exceeds the budget.
func (fr *FlightRecorder) pruneDir() error {
	files, err := filepath.Glob(filepath.Join(fr.dir, "slow-*.json"))
	if err != nil {
		return err
	}
	sort.Strings(files)
	var total int64
	sizes := make([]int64, len(files))
	for i, f := range files {
		if fi, err := os.Stat(f); err == nil {
			sizes[i] = fi.Size()
			total += fi.Size()
		}
	}
	var firstErr error
	remove := func(i int) {
		if err := os.Remove(files[i]); err != nil && !os.IsNotExist(err) && firstErr == nil {
			firstErr = err
		}
		total -= sizes[i]
	}
	keepFrom := 0
	if n := len(files) - fr.capacity; n > 0 {
		for i := 0; i < n; i++ {
			remove(i)
		}
		keepFrom = n
	}
	for i := keepFrom; i < len(files)-1 && fr.maxBytes > 0 && total > fr.maxBytes; i++ {
		remove(i)
	}
	return firstErr
}

// Bundles returns the journaled bundles, oldest first.
func (fr *FlightRecorder) Bundles() []Bundle {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.bundles.Append(nil)
}

// Len reports how many bundles are journaled in memory.
func (fr *FlightRecorder) Len() int {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.bundles.Len()
}

// ReadBundles loads the slow-*.json bundles persisted under dir, oldest
// first — how dosasctl slow reads another process's journal. A missing
// directory reads as empty.
func ReadBundles(dir string) ([]Bundle, error) {
	files, err := filepath.Glob(filepath.Join(dir, "slow-*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var out []Bundle
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return out, err
		}
		var b Bundle
		if err := json.Unmarshal(data, &b); err != nil {
			return out, fmt.Errorf("telemetry: %s: %w", filepath.Base(f), err)
		}
		out = append(out, b)
	}
	return out, nil
}

// FormatBundle renders a bundle as the multi-line report dosasctl slow
// prints: header, stitched timeline, then the latest value of each
// captured series.
func FormatBundle(b Bundle) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace %d op=%s bytes=%d elapsed=%v", b.TraceID, b.Op, b.Bytes, b.Elapsed.Round(time.Microsecond))
	if b.Tenant != "" {
		fmt.Fprintf(&sb, " tenant=%s", b.Tenant)
	}
	if b.Median > 0 {
		fmt.Fprintf(&sb, " median=%v", b.Median.Round(time.Microsecond))
	}
	fmt.Fprintf(&sb, " reason=%s", b.Reason)
	if b.Disposition != "" {
		fmt.Fprintf(&sb, " disposition=%s", b.Disposition)
	}
	sb.WriteString("\n")
	if len(b.Timeline) > 0 {
		sb.WriteString("  timeline:\n")
		for _, e := range b.Timeline {
			fmt.Fprintf(&sb, "    %s %s@%s\n", e.Time.Format("15:04:05.000000"), strings.TrimSpace(trace.FormatEvent(e)), e.Node)
		}
	}
	if len(b.Series) > 0 {
		sb.WriteString("  telemetry window:\n")
		for _, s := range b.Series {
			fmt.Fprintf(&sb, "    %-24s points=%d last=%.3f max=%.3f\n", s.Name, len(s.Points), s.Last().Value, s.Max())
		}
	}
	return sb.String()
}

// SlowDetector decides whether a finished request was slow: elapsed past
// an absolute Threshold, or past Factor×median of the recent latency
// history. Zero-valued criteria are disabled; with both zero nothing is
// ever slow.
type SlowDetector struct {
	threshold time.Duration
	factor    float64

	mu      sync.Mutex
	history *ring.Ring[time.Duration] // recent latencies, for the median
}

// NewSlowDetector builds a detector; historySize bounds the median
// window (default 64).
func NewSlowDetector(threshold time.Duration, factor float64, historySize int) *SlowDetector {
	if historySize <= 0 {
		historySize = 64
	}
	return &SlowDetector{threshold: threshold, factor: factor, history: ring.New[time.Duration](historySize)}
}

// Enabled reports whether any criterion is active.
func (d *SlowDetector) Enabled() bool {
	return d != nil && (d.threshold > 0 || d.factor > 0)
}

// Observe records one finished request's latency and reports whether it
// was slow, plus the median it was judged against and which criterion
// fired. The latency enters the history either way, so a persistent
// slowdown shifts the median instead of flagging every request forever.
func (d *SlowDetector) Observe(elapsed time.Duration) (slow bool, median time.Duration, reason string) {
	if d == nil {
		return false, 0, ""
	}
	d.mu.Lock()
	median = d.medianLocked()
	d.history.Add(elapsed)
	d.mu.Unlock()

	if d.threshold > 0 && elapsed > d.threshold {
		return true, median, "absolute"
	}
	if d.factor > 0 && median > 0 && float64(elapsed) > d.factor*float64(median) {
		return true, median, "factor"
	}
	return false, median, ""
}

// medianLocked computes the median of the recorded history (0 when
// empty). Called with d.mu held.
func (d *SlowDetector) medianLocked() time.Duration {
	if d.history.Len() == 0 {
		return 0
	}
	sorted := d.history.Append(nil)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}
