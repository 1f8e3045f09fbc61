package dosas_test

// Cross-validation of the discrete-event simulator against the live
// system: the same calibration (kernel rate, link rate, request sizes)
// driven through both paths must produce makespans that agree within a
// modest tolerance. This is what licenses using the simulator for the
// paper-scale experiments no single host can materialise.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dosas"
	"dosas/internal/core"
	"dosas/internal/kernels"
	"dosas/internal/sim"
	"dosas/internal/workload"
)

const (
	xvKernelRate = 20e6    // paced sum8 rate, bytes/second
	xvLinkRate   = 30e6    // shaped storage-node link, bytes/second
	xvReqBytes   = 2 << 20 // per-request size
)

// liveMakespan runs n concurrent requests against a paced, shaped
// one-node cluster and returns the wall-clock makespan.
func liveMakespan(t *testing.T, scheme dosas.Scheme, n int) float64 {
	t.Helper()
	policy := dosas.Dynamic
	switch scheme {
	case dosas.AS:
		policy = dosas.AlwaysAccept
	case dosas.TS:
		policy = dosas.AlwaysBounce
	}
	cluster, err := dosas.StartCluster(dosas.Options{
		DataServers: 1,
		Policy:      policy,
		LinkRate:    xvLinkRate,
		Pace:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	fs, err := cluster.ConnectPaced(scheme)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	f, err := fs.Create("xv/data", dosas.CreateOptions{Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(workload.RandomBytes(n*xvReqBytes, 5), 0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if _, err := f.ReadEx("sum8", nil, uint64(r*xvReqBytes), xvReqBytes); err != nil {
				t.Errorf("req %d: %v", r, err)
			}
		}(r)
	}
	wg.Wait()
	span := time.Since(start).Seconds()
	assertDecisionsConserved(t, cluster, policy)
	return span
}

// simMakespan runs the same point through the simulator.
func simMakespan(t *testing.T, scheme core.Scheme, n int) float64 {
	t.Helper()
	m, err := sim.Run(sim.Config{
		Scheme:             scheme,
		Requests:           n,
		BytesPerRequest:    xvReqBytes,
		Op:                 "sum8",
		StorageRatePerCore: xvKernelRate,
		ComputeRatePerCore: xvKernelRate,
		BW:                 xvLinkRate,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m.Makespan
}

func TestSimulatorMatchesLiveSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second timing test")
	}
	kernels.SetRate("sum8", xvKernelRate)
	defer kernels.ResetRates()

	pairs := []struct {
		pub  dosas.Scheme
		core core.Scheme
	}{
		{dosas.TS, core.SchemeTS},
		{dosas.AS, core.SchemeAS},
		{dosas.DOSAS, core.SchemeDOSAS},
	}
	for _, p := range pairs {
		for _, n := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/n=%d", p.pub, n), func(t *testing.T) {
				predicted := simMakespan(t, p.core, n)
				measured := liveMakespan(t, p.pub, n)
				// The live path adds RPC framing, scheduling jitter and
				// pacing quantisation on top of the ideal model; ±45 %
				// still cleanly separates the schemes' orderings, whose
				// gaps at these points exceed that.
				ratio := measured / predicted
				t.Logf("live %.3fs, simulated %.3fs", measured, predicted)
				if ratio < 0.55 || ratio > 1.45 {
					t.Errorf("live %.3fs vs simulated %.3fs (ratio %.2f)",
						measured, predicted, ratio)
				}
			})
		}
	}
}
