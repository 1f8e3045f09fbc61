// Package trace records per-request lifecycle events on DOSAS nodes —
// storage-side (arrival, scheduling decision, kernel start, interruption,
// migration, completion) and client-side (issue, response, transfer,
// local execution). Events carry a distributed TraceID and the recording
// node's identity, so the per-node rings can be stitched into one
// cross-cluster timeline. The recorder is a fixed-capacity ring so it can
// stay enabled in production; operators dump it to reconstruct exactly
// why the Contention Estimator bounced or migrated a request.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"dosas/internal/ring"
)

// Kind classifies a lifecycle event.
type Kind uint8

// Event kinds. Wire-stable: append only, never renumber.
const (
	// KindArrive: an active request reached the node.
	KindArrive Kind = iota + 1
	// KindAdmit: the policy accepted it for storage-side execution.
	KindAdmit
	// KindReject: the policy bounced it at arrival.
	KindReject
	// KindStart: a kernel began executing.
	KindStart
	// KindInterrupt: the policy interrupted a running kernel.
	KindInterrupt
	// KindMigrate: the interrupted kernel's checkpoint left the node.
	KindMigrate
	// KindComplete: the kernel finished on this node.
	KindComplete
	// KindCancel: the client withdrew the request.
	KindCancel
	// KindTransform: an active write-back completed.
	KindTransform
	// KindIssue: the client sent an active request to a storage node.
	KindIssue
	// KindRespond: the client received the storage node's disposition.
	KindRespond
	// KindTransfer: raw data was shipped over the network to the client.
	KindTransfer
)

var kindNames = map[Kind]string{
	KindArrive:    "arrive",
	KindAdmit:     "admit",
	KindReject:    "reject",
	KindStart:     "start",
	KindInterrupt: "interrupt",
	KindMigrate:   "migrate",
	KindComplete:  "complete",
	KindCancel:    "cancel",
	KindTransform: "transform",
	KindIssue:     "issue",
	KindRespond:   "respond",
	KindTransfer:  "transfer",
}

// String names the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its string name, so JSON exports stay
// readable and stable across kind renumbering bugs.
func (k Kind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON parses either a kind name or the kind(N) fallback form.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for kind, name := range kindNames {
		if name == s {
			*k = kind
			return nil
		}
	}
	var n uint8
	if _, err := fmt.Sscanf(s, "kind(%d)", &n); err == nil {
		*k = Kind(n)
		return nil
	}
	return fmt.Errorf("trace: unknown kind %q", s)
}

// Phases of a traced request, carried in Event.Phase on span-style events
// (those with a Dur). They name the four measured stages of an active
// read's life: waiting in the storage node's I/O queue, executing the
// kernel (storage- or client-side), moving raw bytes over the network,
// and the scheduler deciding where the work runs.
const (
	PhaseQueueWait = "queue-wait"
	PhaseKernel    = "kernel-execute"
	PhaseTransfer  = "network-transfer"
	PhaseDecision  = "bounce-decision"
)

// Event is one recorded lifecycle step. Timing fields make it a span:
// Dur is how long the phase took ending at Time, and Predicted is what
// the Contention Estimator forecast for it (0 when not applicable), so
// predicted-vs-actual error is recorded at the source.
type Event struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	Kind    Kind      `json:"kind"`
	TraceID uint64    `json:"trace_id,omitempty"`
	Node    string    `json:"node,omitempty"`
	ReqID   uint64    `json:"req_id"`
	Op      string    `json:"op,omitempty"`
	Bytes   uint64    `json:"bytes,omitempty"`
	// Tenant attributes the event to the requesting tenant ("" = default).
	Tenant string `json:"tenant,omitempty"`
	// Phase names the measured stage for span events (Phase* constants).
	Phase string `json:"phase,omitempty"`
	// Dur is the measured duration of the phase ending at Time.
	Dur time.Duration `json:"dur_ns,omitempty"`
	// Predicted is the estimator's forecast duration for the phase.
	Predicted time.Duration `json:"predicted_ns,omitempty"`
	Note      string        `json:"note,omitempty"`
}

// Recorder is a fixed-capacity ring of events. A nil *Recorder is valid
// and records nothing, so callers need no nil checks at call sites.
type Recorder struct {
	mu      sync.Mutex
	events  *ring.Ring[Event]
	seq     uint64
	dropped uint64 // events overwritten after the ring wrapped
	node    string
	now     func() time.Time
}

// NewRecorder returns a recorder keeping the last capacity events
// (minimum 16).
func NewRecorder(capacity int) *Recorder {
	if capacity < 16 {
		capacity = 16
	}
	return &Recorder{events: ring.New[Event](capacity), now: time.Now}
}

// SetNode stamps all subsequently recorded events with the node identity
// (e.g. "data-0", "meta", "client"). Safe on a nil recorder.
func (r *Recorder) SetNode(node string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.node = node
	r.mu.Unlock()
}

// Node returns the recorder's node identity.
func (r *Recorder) Node() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.node
}

// Record appends a plain (non-span) event, evicting the oldest when full.
func (r *Recorder) Record(kind Kind, reqID uint64, op string, bytes uint64, note string) {
	r.RecordEvent(Event{Kind: kind, ReqID: reqID, Op: op, Bytes: bytes, Note: note})
}

// RecordEvent appends ev, filling in Seq, Time, and Node. It is the
// general entry point for span events carrying TraceID, Phase, Dur, and
// Predicted.
func (r *Recorder) RecordEvent(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	if ev.Time.IsZero() {
		ev.Time = r.now()
	}
	if ev.Node == "" {
		ev.Node = r.node
	}
	if r.events.Add(ev) {
		r.dropped++
	}
	r.mu.Unlock()
}

// Dropped reports how many events were evicted because the ring wrapped —
// non-zero means Snapshot's timeline is incomplete. Safe on nil.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Snapshot returns the retained events in chronological order.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events.Append(nil)
}

// Len reports how many events are retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events.Len()
}

// WriteTo dumps the retained events as one line each, with a trailer
// noting any events the ring evicted (an incomplete timeline).
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	return WriteEvents(w, r.Snapshot(), r.Dropped())
}

// WriteEvents dumps events as one line each, as Recorder.WriteTo does,
// with a trailer when dropped says the ring evicted older ones.
func WriteEvents(w io.Writer, evs []Event, dropped uint64) (int64, error) {
	var total int64
	for _, e := range evs {
		n, err := fmt.Fprintf(w, "%s%s\n", e.Time.Format("15:04:05.000"), FormatEvent(e))
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	if dropped > 0 {
		n, err := fmt.Fprintf(w, "... %d older events dropped (ring wrapped)\n", dropped)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// FormatEvent renders one event's fields (everything after the timestamp)
// in the canonical single-line form shared by WriteTo and dosasctl.
func FormatEvent(e Event) string {
	s := fmt.Sprintf(" seq=%d req=%d %-9s op=%s bytes=%d", e.Seq, e.ReqID, e.Kind, e.Op, e.Bytes)
	if e.Tenant != "" {
		s += fmt.Sprintf(" tenant=%s", e.Tenant)
	}
	if e.Phase != "" {
		s += fmt.Sprintf(" phase=%s", e.Phase)
	}
	if e.Dur > 0 {
		s += fmt.Sprintf(" dur=%v", e.Dur.Round(time.Microsecond))
	}
	if e.Predicted > 0 {
		s += fmt.Sprintf(" predicted=%v", e.Predicted.Round(time.Microsecond))
	}
	if e.Note != "" {
		s += " " + e.Note
	}
	return s
}

// WriteJSON dumps the retained events as one JSON array — the structured
// sibling of WriteTo, in the form the trace introspection serves events.
func (r *Recorder) WriteJSON(w io.Writer) error {
	evs := r.Snapshot()
	if evs == nil {
		evs = []Event{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(evs)
}

// History reconstructs one request's event sequence.
func (r *Recorder) History(reqID uint64) []Event {
	var out []Event
	for _, e := range r.Snapshot() {
		if e.ReqID == reqID {
			out = append(out, e)
		}
	}
	return out
}

// HistoryTrace reconstructs one distributed trace's event sequence.
func (r *Recorder) HistoryTrace(traceID uint64) []Event {
	var out []Event
	for _, e := range r.Snapshot() {
		if e.TraceID == traceID {
			out = append(out, e)
		}
	}
	return out
}
