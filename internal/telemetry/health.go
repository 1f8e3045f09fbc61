package telemetry

// Check is one named readiness probe inside a HealthReport. OK=false
// marks the resource degraded; Detail says why (or gives the healthy
// reading, so operators see the margin as well as the verdict).
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// HealthReport is a node's liveness plus per-resource readiness — the
// body of the health introspection. Ready is the conjunction of all
// checks: a node that answers at all is live, but a saturated queue or
// missing Contention Estimator degrades it.
type HealthReport struct {
	Node       string  `json:"node"`
	Role       string  `json:"role"`
	Ready      bool    `json:"ready"`
	Checks     []Check `json:"checks"`
	UptimeNano int64   `json:"uptime_nano,omitempty"`
}

// Summarize sets Ready from the conjunction of the checks and returns
// the report for chaining.
func (h HealthReport) Summarize() HealthReport {
	h.Ready = true
	for _, c := range h.Checks {
		if !c.OK {
			h.Ready = false
			break
		}
	}
	return h
}

// Failing returns the names of the degraded checks.
func (h HealthReport) Failing() []string {
	var out []string
	for _, c := range h.Checks {
		if !c.OK {
			out = append(out, c.Name)
		}
	}
	return out
}
