package dosas_test

import (
	"sync"
	"testing"
	"time"

	"dosas"
	"dosas/internal/audit"
	"dosas/internal/kernels"
	"dosas/internal/workload"
)

// pacedBatch runs one batch of n concurrent sum8 active reads, each
// xvReqBytes long, over a width-1 file of data on a fresh paced one-node
// cluster with a shaped TCP link and an extent store, and checks every
// sum. It returns the batch's makespan and the cluster, which stays up
// until the test ends.
func pacedBatch(t *testing.T, scheme dosas.Scheme, policy dosas.Policy, data []byte, n int) (float64, *dosas.Cluster) {
	t.Helper()
	c := startCluster(t, dosas.Options{
		DataServers: 1, Policy: policy, LinkRate: xvLinkRate, Pace: true,
		TCP: true, DataDir: t.TempDir(),
	})
	fs, err := c.ConnectPaced(scheme)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Close)
	f, err := fs.Create("batch/data", dosas.CreateOptions{Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for r := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			off := r * xvReqBytes
			res, err := f.ReadEx("sum8", nil, uint64(off), xvReqBytes)
			if err != nil {
				t.Errorf("%s req %d: %v", scheme, r, err)
				return
			}
			var want uint64
			for _, b := range data[off : off+xvReqBytes] {
				want += uint64(b)
			}
			if got := dosas.SumResult(res.Output); got != want {
				t.Errorf("%s req %d: sum %d, want %d", scheme, r, got, want)
			}
		}()
	}
	wg.Wait()
	span := time.Since(start).Seconds()
	assertDecisionsConserved(t, c, policy)
	return span, c
}

// TestPacedBatchKeepsItsKernels: on the cross-validation point at n = 8
// the solver keeps a few requests on the node and bounces the rest. The
// bounced requests' plain reads hold the node's I/O slots only while the
// store serves them, not while their responses cross the shaped link, so
// the Contention Estimator must not count them as contention: every
// re-evaluation prices S undiscounted, nothing is interrupted, at least
// one request completes on the node, and DOSAS beats shipping every byte
// (TS) by a clear margin.
func TestPacedBatchKeepsItsKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second timing test")
	}
	kernels.SetRate("sum8", xvKernelRate)
	t.Cleanup(kernels.ResetRates)
	const n = 8
	data := workload.RandomBytes(n*xvReqBytes, 5)

	dosasSpan, c := pacedBatch(t, dosas.DOSAS, dosas.Dynamic, data, n)
	tsSpan, _ := pacedBatch(t, dosas.TS, dosas.AlwaysBounce, data, n)

	m := c.DecisionMetrics()
	if m.Interrupted != 0 || m.Completed < 1 {
		t.Errorf("DOSAS batch: %d interrupted, %d completed on the node; want 0 and ≥ 1 (%+v)",
			m.Interrupted, m.Completed, m)
	}
	var sweeps int
	for _, r := range c.DecisionLogAll() {
		if r.Trigger != audit.TriggerReevaluate {
			continue
		}
		sweeps++
		if r.Env.StorageRate != xvKernelRate {
			t.Errorf("re-evaluation %d priced S at %.4g B/s, want %.4g", r.Seq, r.Env.StorageRate, xvKernelRate)
		}
	}
	if sweeps == 0 {
		t.Error("the DOSAS batch logged no re-evaluation")
	}
	if dosasSpan > 0.85*tsSpan {
		t.Errorf("DOSAS makespan %.3fs > 0.85 × TS %.3fs (ratio %.2f)", dosasSpan, tsSpan, dosasSpan/tsSpan)
	}
	t.Logf("DOSAS %.3fs, TS %.3fs (ratio %.2f), %d re-evaluations, %+v", dosasSpan, tsSpan, dosasSpan/tsSpan, sweeps, m)
}
