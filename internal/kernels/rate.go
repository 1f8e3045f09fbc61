package kernels

import (
	"fmt"
	"sync"
	"time"
)

// Default per-core processing rates in bytes/second for each kernel. The
// sum8 and gaussian2d values are the paper's Table III measurements on the
// Discfarm cluster (860 MB/s and 80 MB/s per core); the rest are rough
// single-core estimates in the same spirit. Calibrate measures the true
// rate on the local host and can overwrite these.
var defaultRates = map[string]float64{
	"sum8":       860e6,
	"sum64":      860e6,
	"gaussian2d": 80e6,
	"minmax":     800e6,
	"moments":    600e6,
	"histogram":  700e6,
	"count":      400e6,
	"wordcount":  500e6,
	"downsample": 700e6,
	"kmeans1d":   300e6,
}

var (
	rateMu sync.RWMutex
	rates  = func() map[string]float64 {
		m := make(map[string]float64, len(defaultRates))
		for k, v := range defaultRates {
			m[k] = v
		}
		return m
	}()
)

// RateFor returns the configured per-core processing rate (bytes/second)
// for the named operation, or 0 if unknown. The Contention Estimator uses
// this as the max value of S_{C,op} in the paper's notation.
func RateFor(op string) float64 {
	rateMu.RLock()
	defer rateMu.RUnlock()
	return rates[op]
}

// SetRate overrides the per-core processing rate for op.
func SetRate(op string, bytesPerSecond float64) {
	rateMu.Lock()
	rates[op] = bytesPerSecond
	rateMu.Unlock()
}

// ResetRates restores the compiled-in default rates (used by tests).
func ResetRates() {
	rateMu.Lock()
	defer rateMu.Unlock()
	rates = make(map[string]float64, len(defaultRates))
	for k, v := range defaultRates {
		rates[k] = v
	}
}

// calibrateWidth is the gaussian2d row width Calibrate measures at: an
// image-like row, whose three-row window stays in cache as real images'
// rows do — not a function of the sample size, which at 32 MiB would make
// rows no image has.
const calibrateWidth = 4096

// defaultParamsFor returns parameters that make the named kernel runnable
// over an arbitrary byte stream, for calibration.
func defaultParamsFor(op string) []byte {
	switch op {
	case "gaussian2d":
		return GaussianParams(calibrateWidth, false)
	case "count":
		return []byte("needle")
	case "downsample":
		return DownsampleParams(16)
	case "kmeans1d":
		return KMeansParams(4, 0, 256)
	default:
		return nil
	}
}

// Calibrate measures the actual single-core processing rate of the named
// kernel on this host by streaming sampleBytes of synthetic data through
// it, and returns bytes/second. Pass store=true to install the measured
// rate for subsequent RateFor calls (this is how a deployment regenerates
// the paper's Table III for its own hardware).
func Calibrate(op string, sampleBytes int, store bool) (float64, error) {
	if sampleBytes <= 0 {
		sampleBytes = 32 << 20
	}
	k, err := Start(op, defaultParamsFor(op), nil)
	if err != nil {
		return 0, err
	}
	const chunk = 1 << 20
	data := make([]byte, chunk)
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	start := time.Now()
	var done int
	for done < sampleBytes {
		n := sampleBytes - done
		if n > chunk {
			n = chunk
		}
		if err := k.Process(data[:n]); err != nil {
			return 0, fmt.Errorf("kernels: calibrate %s: %w", op, err)
		}
		done += n
	}
	if _, err := k.Result(); err != nil {
		return 0, fmt.Errorf("kernels: calibrate %s: %w", op, err)
	}
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	rate := float64(sampleBytes) / elapsed
	if store {
		SetRate(op, rate)
	}
	return rate, nil
}
