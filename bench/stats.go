package main

import (
	"math"
	"sort"
)

// numSlices is how many consecutive slices a timed window is cut into.
// Every metric is computed per slice and reported as the median of the
// slices, so one noisy slice (a GC cycle, a scheduler hiccup) cannot move
// the reported value. Shorter runs shorten the slices, never the count.
const numSlices = 5

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule: the smallest value with at least q·n values at or
// below it. sorted must be ascending and non-empty.
func percentile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// supportsPercentile reports whether n samples leave at least ten beyond
// the q-quantile — the rule for reporting a tail percentile at all.
func supportsPercentile(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

// median returns the middle value of xs (mean of the middle two when the
// count is even); NaN when xs is empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Summary is one metric's reported value: the median of its per-slice
// values, the min–max across slices as the spread, and how many samples
// the smallest slice held.
type Summary struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Samples int       `json:"samples"`
	Slices  []float64 `json:"slices,omitempty"`
	// Note says why the value should not be relied on, when it should not.
	Note string `json:"note,omitempty"`
}

// Spread is (max − min) ÷ |median| across slices: how far one run's own
// slices disagree. -compare calls a metric unresolved when either run's
// spread exceeds the metric's bound.
func (s Summary) Spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Max - s.Min) / math.Abs(s.Value)
}

// summarize folds per-slice values into a Summary. samples is the sample
// count of the smallest slice (0 for derived values).
func summarize(unit string, slices []float64, samples int) Summary {
	s := Summary{Unit: unit, Value: median(slices), Samples: samples, Slices: slices}
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	for _, v := range slices {
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	return s
}

// scalar is a Summary for a value measured once per run (a counter
// delta, a probe), with no slices behind it.
func scalar(unit string, v float64) Summary {
	return Summary{Unit: unit, Value: v, Min: v, Max: v}
}
