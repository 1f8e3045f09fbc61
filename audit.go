package dosas

import (
	"sort"

	"dosas/internal/audit"
	"dosas/internal/core"
	"dosas/internal/pfs"
)

// DecisionRecord is one recorded scheduler invocation on a storage node:
// the environment the Contention Estimator saw, every request's feature
// vector with predicted costs and margin to the decision boundary, the
// solver's chosen assignment, and — once the decided request finishes —
// the measured outcome.
type DecisionRecord = audit.Record

// DecisionFeature is one request's feature vector inside a
// DecisionRecord.
type DecisionFeature = audit.Feature

// DecisionOutcome is the realized fate of the request a decision
// admitted or bounced.
type DecisionOutcome = audit.Outcome

// DecisionEnv is the environment snapshot a decision was made under.
type DecisionEnv = audit.Env

// ReplayOverrides perturbs the recorded environment during
// counterfactual replay ("what if the network were 10× faster?").
type ReplayOverrides = audit.Overrides

// ReplayReport scores one policy's counterfactual run over a decision
// log: bounce rate, agreement with the recorded choices, total time and
// per-request regret against the pointwise oracle.
type ReplayReport = audit.Report

// ReplayVerdict is one request's counterfactual outcome inside a
// ReplayReport.
type ReplayVerdict = audit.Verdict

// FormatDecisions renders records as the human-readable rationale
// dosasctl explain prints.
func FormatDecisions(records []DecisionRecord) string { return audit.FormatRecords(records) }

// EncodeDecisions marshals records as the canonical JSON array written
// to decision-log files.
func EncodeDecisions(records []DecisionRecord) ([]byte, error) {
	return audit.EncodeRecords(records)
}

// DecodeDecisions is the inverse of EncodeDecisions.
func DecodeDecisions(data []byte) ([]DecisionRecord, error) { return audit.DecodeRecords(data) }

// FilterDecisionsTrace keeps records whose batch involved the given
// distributed trace.
func FilterDecisionsTrace(records []DecisionRecord, traceID uint64) []DecisionRecord {
	return audit.FilterTrace(records, traceID)
}

// LastDecisions returns the trailing n records (n <= 0 means all).
func LastDecisions(records []DecisionRecord, n int) []DecisionRecord {
	return audit.Last(records, n)
}

// ReplayPolicies names the policies ReplayDecisions accepts: "recorded"
// (echo the log — a fixed point), plus every production solver.
func ReplayPolicies() []string {
	return []string{"recorded", "exhaustive", "maxgain", "all-active", "all-normal"}
}

// ReplayDecisions re-runs a decision log under the named policy and
// perturbed environment, scoring the counterfactual with recorded actual
// costs where the log has them. The policies run the production solver
// code, so "what would exhaustive have done" is answered by Exhaustive
// itself, not a reimplementation.
func ReplayDecisions(records []DecisionRecord, policy string, ov ReplayOverrides) (ReplayReport, error) {
	p, err := core.PolicyByName(policy)
	if err != nil {
		return ReplayReport{}, err
	}
	return audit.Replay(records, p, ov), nil
}

// EncodeReplayReports marshals reports as the stable, indented JSON that
// dosasctl whatif emits (byte-deterministic for a given log and policy
// set — the property make replay-determinism checks).
func EncodeReplayReports(reports []ReplayReport) ([]byte, error) {
	return audit.EncodeReports(reports)
}

// DecisionLog returns storage node i's retained decision records in
// chronological order.
func (c *Cluster) DecisionLog(node int) ([]DecisionRecord, error) {
	n, err := c.storageNode(node)
	if err != nil {
		return nil, err
	}
	var r pfs.DecisionReply
	_, err = n.ask(pfs.KindDecisions, nil, &r)
	return r.Records, err
}

// DecisionLogAll merges every storage node's decision log into one
// chronological timeline (ties broken by node, then per-node sequence).
func (c *Cluster) DecisionLogAll() []DecisionRecord {
	records, _, _ := c.peers().decisionLog(0, 0)
	return records
}

// DecisionLog sweeps every storage node of the connected cluster over
// the wire and merges the retained decision logs chronologically. limit,
// when positive, keeps only the trailing limit records per node;
// traceID, when non-zero, restricts to decisions whose batch involved
// that trace. Unreachable nodes are skipped (they surface in Health).
// dropped is the total number of records the nodes' rings overwrote:
// non-zero means the merged log is a suffix of the cluster's true
// decision history.
func (fs *FS) DecisionLog(limit uint64, traceID uint64) (records []DecisionRecord, dropped uint64, err error) {
	return fs.peers().decisionLog(limit, traceID)
}

func (ps peers) decisionLog(limit uint64, traceID uint64) (records []DecisionRecord, dropped uint64, err error) {
	params := pfs.DecisionParams{Limit: limit, TraceID: traceID}
	err = sweep(ps, pfs.KindDecisions, true, func(string) any { return params },
		func(_, _ string, r pfs.DecisionReply) {
			records = append(records, r.Records...)
			dropped += r.Dropped
		})
	sortDecisions(records)
	return records, dropped, err
}

// sortDecisions orders a multi-node record set by wall-clock time, with
// ties broken by node then per-node sequence — the same convention as
// StitchTimeline. All nodes of an in-process or single-host cluster
// share a clock; across real hosts it is as good as their clock sync.
func sortDecisions(records []DecisionRecord) {
	sort.SliceStable(records, func(i, j int) bool {
		if records[i].TimeUnixNano != records[j].TimeUnixNano {
			return records[i].TimeUnixNano < records[j].TimeUnixNano
		}
		if records[i].Node != records[j].Node {
			return records[i].Node < records[j].Node
		}
		return records[i].Seq < records[j].Seq
	})
}
