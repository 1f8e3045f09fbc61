package sim

import (
	"fmt"

	"dosas/internal/core"
)

// MB is a binary megabyte, the unit of the paper's request sizes.
const MB = 1 << 20

// PaperScales is the paper's x-axis: concurrent I/O requests per storage
// node (Section IV-A1).
var PaperScales = []int{1, 2, 4, 8, 16, 32, 64}

// PaperSizes are the request data sizes the paper sweeps.
var PaperSizes = []uint64{128 * MB, 256 * MB, 512 * MB, 1024 * MB}

// PaperSchemes are the three evaluated schemes in the paper's order.
var PaperSchemes = []core.Scheme{core.SchemeTS, core.SchemeAS, core.SchemeDOSAS}

// Point is one measurement: a scheme at a request scale.
type Point struct {
	Scheme    core.Scheme
	Requests  int
	Seconds   float64 // total execution time (the figures' y-axis)
	Bandwidth float64 // achieved bytes/second (Figures 11–12 y-axis)
}

// Series simulates the given schemes across the paper's request scales for
// one operation and request size, producing the data behind one
// execution-time or bandwidth figure.
func Series(op string, bytesPerReq uint64, schemes []core.Scheme, noise Noise, seed int64) ([]Point, error) {
	var out []Point
	for _, scheme := range schemes {
		for _, n := range PaperScales {
			m, err := Run(Config{
				Scheme:          scheme,
				Requests:        n,
				BytesPerRequest: bytesPerReq,
				Op:              op,
				Noise:           noise,
				Seed:            seed + int64(n)*31 + int64(scheme)*1009,
			})
			if err != nil {
				return nil, fmt.Errorf("sim: %v n=%d: %w", scheme, n, err)
			}
			out = append(out, Point{Scheme: scheme, Requests: n, Seconds: m.Makespan, Bandwidth: m.Bandwidth})
		}
	}
	return out, nil
}

// Situation is one row of the paper's Table IV: a workload point, the
// scheduling algorithm's noise-free decision, and the empirically best
// choice under realistic noise.
type Situation struct {
	Index    int
	Op       string
	Requests int
	Bytes    uint64
	Decision string // "Active" or "Normal" — the algorithm's choice
	Practice string // which choice actually won in the noisy run
	Correct  bool
}

// decide returns the algorithm's whole-queue decision from the idealised
// model: process as active I/O or as normal I/O.
func decide(op string, n int, bytes uint64) (string, error) {
	cfg := Config{Scheme: core.SchemeAS, Requests: n, BytesPerRequest: bytes, Op: op}
	if err := cfg.applyDefaults(); err != nil {
		return "", err
	}
	env := cfg.env()
	result := resultSize(op, bytes)
	reqs := make([]core.Request, n)
	for i := range reqs {
		reqs[i] = core.Request{ID: uint64(i + 1), Bytes: bytes, ResultBytes: result}
	}
	if env.TimeAllActive(reqs) <= env.TimeAllNormal(reqs) {
		return "Active", nil
	}
	return "Normal", nil
}

// ScheduleAccuracy regenerates Table IV: for every combination of
// benchmark (SUM, 2-D Gaussian), request scale, and request size, it
// compares the algorithm's model-based decision against the choice that
// actually wins when the same point is executed under Discfarm-like noise.
func ScheduleAccuracy(seed int64) ([]Situation, error) {
	var out []Situation
	idx := 0
	for _, op := range []string{"sum8", "gaussian2d"} {
		for _, n := range PaperScales {
			for _, bytes := range PaperSizes {
				idx++
				decision, err := decide(op, n, bytes)
				if err != nil {
					return nil, err
				}
				runSeed := seed + int64(idx)*7919
				as, err := Run(Config{Scheme: core.SchemeAS, Requests: n, BytesPerRequest: bytes,
					Op: op, Noise: DiscfarmNoise(), Seed: runSeed})
				if err != nil {
					return nil, err
				}
				ts, err := Run(Config{Scheme: core.SchemeTS, Requests: n, BytesPerRequest: bytes,
					Op: op, Noise: DiscfarmNoise(), Seed: runSeed})
				if err != nil {
					return nil, err
				}
				practice := "Active"
				if ts.Makespan < as.Makespan {
					practice = "Normal"
				}
				out = append(out, Situation{
					Index:    idx,
					Op:       op,
					Requests: n,
					Bytes:    bytes,
					Decision: decision,
					Practice: practice,
					Correct:  decision == practice,
				})
			}
		}
	}
	return out, nil
}

// AccuracyRate is the fraction of situations judged correctly.
func AccuracyRate(sits []Situation) float64 {
	if len(sits) == 0 {
		return 0
	}
	correct := 0
	for _, s := range sits {
		if s.Correct {
			correct++
		}
	}
	return float64(correct) / float64(len(sits))
}
