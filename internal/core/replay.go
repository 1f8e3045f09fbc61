package core

import (
	"fmt"
	"strings"

	"dosas/internal/audit"
)

// replayPolicy adapts a real Solver to the audit replay engine's Policy
// interface, converting audit features back into scheduler Requests. The
// point is fidelity: a counterfactual replay runs the production solver
// code, not a restatement of it.
type replayPolicy struct{ s Solver }

// ReplayPolicy wraps a solver for use with audit.Replay.
func ReplayPolicy(s Solver) audit.Policy { return replayPolicy{s: s} }

// Name implements audit.Policy.
func (p replayPolicy) Name() string { return p.s.Name() }

// Decide implements audit.Policy.
func (p replayPolicy) Decide(reqs []audit.Feature, env audit.Env) []bool {
	creqs := make([]Request, len(reqs))
	for i, f := range reqs {
		creqs[i] = Request{
			ID:          f.SchedID,
			Op:          f.Op,
			Bytes:       f.Bytes,
			ResultBytes: f.ResultBytes,
			StorageRate: f.StorageRate,
			ComputeRate: f.ComputeRate,
		}
	}
	return p.s.Solve(creqs, Env{BW: env.BW, StorageRate: env.StorageRate, ComputeRate: env.ComputeRate})
}

// PolicyByName maps a replay policy name — the -policy vocabulary of
// dosasctl whatif — to an audit Policy: a solver ("exhaustive", "maxgain",
// "all-active", "all-normal") or "recorded" (the log's own decisions).
func PolicyByName(name string) (audit.Policy, error) {
	var s Solver
	switch strings.ToLower(name) {
	case "recorded":
		return audit.Recorded{}, nil
	case "exhaustive":
		s = Exhaustive{}
	case "maxgain", "max-gain":
		s = MaxGain{}
	case "all-active", "allactive":
		s = AllActive{}
	case "all-normal", "allnormal":
		s = AllNormal{}
	default:
		return nil, fmt.Errorf("core: unknown policy %q (want recorded, exhaustive, maxgain, all-active or all-normal)", name)
	}
	return ReplayPolicy(s), nil
}
