// Package audit records every scheduling decision the Active I/O
// Runtime's solver makes — the environment the Contention Estimator saw,
// the per-request feature vectors it derived, the assignment the solver
// chose, and (once the request finishes) the measured outcome. The log is
// a bounded in-memory ring, fetched over the wire as JSON, and is the
// input to the counterfactual replay engine in replay.go: the same
// traffic can be re-scheduled offline under a different policy or a
// perturbed environment and scored against what really happened.
//
// The package sits below core (core appends to the ring), so it must not
// import core; the few cost formulas it needs (Eqs. 5–7 of the paper) are
// restated here on its own Env/Feature types and cross-checked against
// core's in core's tests.
package audit

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"dosas/internal/ring"
)

// Triggers: which code path invoked the solver.
const (
	// TriggerAdmit is the arrival-time decision over the active set plus
	// the newcomer; exactly one Feature has Newcomer set.
	TriggerAdmit = "admit"
	// TriggerReevaluate is the periodic policy sweep over queued and
	// running work; no Feature is a newcomer.
	TriggerReevaluate = "reevaluate"
)

// Realized dispositions, filled into a record's Outcome when the request
// it decided finishes. They deliberately distinguish the ways a request
// can leave the storage node so replay can tell a clean completion from a
// bounce-after-interrupt.
const (
	DispDone          = "done"           // kernel ran to completion here
	DispBounced       = "bounced"        // rejected at admission
	DispBouncedQueued = "bounced-queued" // bounced from the queue at re-evaluation
	DispInterrupted   = "interrupted"    // running kernel checkpointed and migrated
	DispCancelled     = "cancelled"      // withdrawn by the client while queued
	DispError         = "error"          // kernel failed
	DispShutdown      = "shutdown"       // runtime closed before it ran
)

// Env is the scheduling environment snapshot at decision time — the
// paper's bw, S_{C,op} and C_{C,op} as the Contention Estimator reported
// them. All rates are bytes/second.
type Env struct {
	BW          float64 `json:"bw"`
	StorageRate float64 `json:"storage_rate"`
	ComputeRate float64 `json:"compute_rate"`
}

func (e Env) storageRate(f Feature) float64 {
	if f.StorageRate > 0 {
		return f.StorageRate
	}
	return e.StorageRate
}

func (e Env) computeRate(f Feature) float64 {
	if f.ComputeRate > 0 {
		return f.ComputeRate
	}
	return e.ComputeRate
}

// XCost is x_i (Eq. 5): process d_i bytes here, ship the h(d_i) result.
func (e Env) XCost(f Feature) float64 {
	return float64(f.Bytes)/e.storageRate(f) + float64(f.ResultBytes)/e.BW
}

// YCost is y_i (Eq. 6): ship the raw bytes to the compute node.
func (e Env) YCost(f Feature) float64 { return float64(f.Bytes) / e.BW }

// ClientCost is c_i (Eq. 7): the compute node's time over the raw bytes.
func (e Env) ClientCost(f Feature) float64 { return float64(f.Bytes) / e.computeRate(f) }

// TotalTime evaluates the paper's objective (Eq. 4) over an assignment:
// accepted requests serialise their x_i on the storage node, bounced
// requests serialise their y_i transfers and then compute in parallel
// (max c_i). Mirrors core.Env.TotalTime.
func (e Env) TotalTime(reqs []Feature, accept []bool) float64 {
	var t, z float64
	for i, f := range reqs {
		if accept[i] {
			t += e.XCost(f)
		} else {
			t += e.YCost(f)
			if c := e.ClientCost(f); c > z {
				z = c
			}
		}
	}
	return t + z
}

// Feature is the per-request feature vector the solver decided over: the
// request's identity, size, per-op rates, and the predicted costs under
// the decision-time Env. Costs are seconds.
type Feature struct {
	// SchedID is the runtime-internal scheduler id (ephemeral for the
	// newcomer); ReqID/TraceID are the client-visible identities.
	SchedID     uint64  `json:"sched_id"`
	ReqID       uint64  `json:"req_id,omitempty"`
	TraceID     uint64  `json:"trace_id,omitempty"`
	Tenant      string  `json:"tenant,omitempty"`
	Op          string  `json:"op"`
	Bytes       uint64  `json:"bytes"`
	ResultBytes uint64  `json:"result_bytes"`
	StorageRate float64 `json:"storage_rate,omitempty"`
	ComputeRate float64 `json:"compute_rate,omitempty"`
	PredActive  float64 `json:"pred_active"` // x_i
	PredNormal  float64 `json:"pred_normal"` // y_i
	PredClient  float64 `json:"pred_client"` // c_i
	Gain        float64 `json:"gain"`        // x_i − y_i
	// FlipDelta is the margin to the decision boundary: how much the
	// predicted objective worsens if only this request's assignment is
	// flipped. Near zero means the choice was a coin toss. Zero when the
	// batch was too large to afford the extra evaluations.
	FlipDelta float64 `json:"flip_delta,omitempty"`
	Accept    bool    `json:"accept"`
	Newcomer  bool    `json:"newcomer,omitempty"`
}

// Outcome is what actually happened to the request an admit record
// decided, filled in asynchronously on completion.
type Outcome struct {
	Disposition string `json:"disposition"`
	// KernelNS is the measured storage-side kernel time (partial for
	// interrupted requests). Zero when the request never ran here.
	KernelNS    int64 `json:"kernel_ns,omitempty"`
	QueueWaitNS int64 `json:"queue_wait_ns,omitempty"`
	// Processed is how many input bytes the kernel consumed here.
	Processed uint64 `json:"processed,omitempty"`
}

// Record is one solver invocation: everything needed to re-run it.
type Record struct {
	Seq          uint64 `json:"seq"`
	TimeUnixNano int64  `json:"time_unix_nano"`
	Node         string `json:"node,omitempty"`
	Solver       string `json:"solver"`
	Trigger      string `json:"trigger"`
	Env          Env    `json:"env"`
	// Queued and Running are the depths of the active set at decision
	// time (context beyond the Env, cheap to keep).
	Queued  int       `json:"queued"`
	Running int       `json:"running"`
	Reqs    []Feature `json:"reqs"`
	// Predicted objective values (seconds) under the decision-time Env:
	// the chosen assignment and the two static extremes.
	PredChosen    float64 `json:"pred_chosen"`
	PredAllActive float64 `json:"pred_all_active"`
	PredAllNormal float64 `json:"pred_all_normal"`
	// Outcome is the newcomer's realized fate; nil while in flight (or
	// forever, for reevaluate records, which decide no single request).
	Outcome *Outcome `json:"outcome,omitempty"`
}

// Newcomer returns the arriving request's feature vector, or nil for
// records without one (reevaluate sweeps).
func (r *Record) Newcomer() *Feature {
	for i := range r.Reqs {
		if r.Reqs[i].Newcomer {
			return &r.Reqs[i]
		}
	}
	return nil
}

// clone deep-copies a record so snapshots cannot alias the ring.
func (r Record) clone() Record {
	r.Reqs = append([]Feature(nil), r.Reqs...)
	if r.Outcome != nil {
		o := *r.Outcome
		r.Outcome = &o
	}
	return r
}

// Log is a bounded, thread-safe ring of decision records. All methods are
// safe on a nil *Log (they become no-ops), so callers never need nil
// checks on hot paths — the trace.Recorder convention.
type Log struct {
	mu      sync.Mutex
	records *ring.Ring[Record]
	seq     uint64 // records ever appended
	dropped uint64 // records overwritten before being fetched
	node    string
	now     func() time.Time
}

// NewLog builds a ring retaining the last capacity records (minimum 1).
func NewLog(capacity int) *Log {
	return &Log{records: ring.New[Record](capacity), now: time.Now}
}

// SetNode stamps subsequent records with the node's identity.
func (l *Log) SetNode(node string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.node = node
	l.mu.Unlock()
}

// Node returns the stamped identity.
func (l *Log) Node() string {
	if l == nil {
		return ""
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.node
}

// Append stores a record and returns its sequence number (≥ 1), the
// handle Resolve later uses to attach the outcome. Returns 0 on a nil
// log. Append stamps Seq, and Node/TimeUnixNano when unset.
func (l *Log) Append(r Record) uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	r.Seq = l.seq
	if r.TimeUnixNano == 0 {
		r.TimeUnixNano = l.now().UnixNano()
	}
	if r.Node == "" {
		r.Node = l.node
	}
	if l.records.Add(r) {
		l.dropped++
	}
	return r.Seq
}

// Resolve attaches the realized outcome to record seq. It reports false
// when the record has already been overwritten (or seq is 0 — the "no
// record was made" handle, so unconditional Resolve calls stay cheap).
func (l *Log) Resolve(seq uint64, o Outcome) bool {
	if l == nil || seq == 0 {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Newest records resolve most often; scan backwards from the newest.
	for i := l.records.Len() - 1; i >= 0; i-- {
		r := l.records.At(i)
		if r.Seq == seq {
			r.Outcome = &o
			return true
		}
		if r.Seq < seq {
			return false
		}
	}
	return false
}

// Snapshot returns the retained records oldest-first, deep-copied.
func (l *Log) Snapshot() []Record {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.records.Append(make([]Record, 0, l.records.Len()))
	for i := range out {
		out[i] = out[i].clone()
	}
	return out
}

// Len reports the number of retained records.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records.Len()
}

// Dropped reports how many records the ring has overwritten.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Last returns the trailing n records of a chronological slice.
func Last(records []Record, n int) []Record {
	if n <= 0 || n >= len(records) {
		return records
	}
	return records[len(records)-n:]
}

// FilterTrace keeps records whose batch involved the given trace.
func FilterTrace(records []Record, traceID uint64) []Record {
	var out []Record
	for _, r := range records {
		for _, f := range r.Reqs {
			if f.TraceID == traceID {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

// EncodeRecords marshals records as the canonical JSON array exchanged on
// the wire and written to decision-log files.
func EncodeRecords(records []Record) ([]byte, error) {
	if records == nil {
		records = []Record{}
	}
	return json.Marshal(records)
}

// DecodeRecords is the inverse of EncodeRecords.
func DecodeRecords(data []byte) ([]Record, error) {
	if len(data) == 0 {
		return nil, nil
	}
	var out []Record
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("audit: decoding records: %w", err)
	}
	return out, nil
}
