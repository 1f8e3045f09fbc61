package core

import (
	"strings"
	"testing"
	"time"

	"dosas/internal/kernels"
)

func TestLocalRangesContiguityAndCoverage(t *testing.T) {
	c := startActiveCluster(t, clusterOpts{nData: 3, mode: ModeAlwaysAccept, scheme: SchemeAS})
	// 10 stripes of 64 KiB over 3 servers.
	f, _ := writeFile(t, c.fs, "lr/x", 10*64<<10, 3)

	cases := []struct {
		off, length uint64
	}{
		{0, f.Size()},    // whole file
		{0, 64 << 10},    // exactly one stripe
		{1000, 64 << 10}, // crosses one stripe boundary
		{3 * 64 << 10, 128 << 10},
		{5000, 5*64<<10 + 1234}, // messy interior range
	}
	for _, tc := range cases {
		ranges := localRanges(f, tc.off, tc.length)
		var total uint64
		seen := map[uint32]bool{}
		for _, lr := range ranges {
			if seen[lr.server] {
				t.Errorf("range [%d,%d): server %d appears twice", tc.off, tc.off+tc.length, lr.server)
			}
			seen[lr.server] = true
			total += lr.length
			// The local range must equal [min, max+1) over the local
			// positions of the request's bytes striped onto that server.
			layout := f.Layout()
			ss, w := uint64(layout.StripeSize), uint64(len(layout.Servers))
			var lo, hi uint64
			first := true
			for x := tc.off; x < tc.off+tc.length; x++ {
				if layout.Servers[x/ss%w] != lr.server {
					continue
				}
				local := x/ss/w*ss + x%ss
				if first || local < lo {
					lo = local
				}
				if first || local+1 > hi {
					hi = local + 1
				}
				first = false
			}
			if lr.offset != lo || lr.offset+lr.length != hi {
				t.Errorf("range [%d,%d) server %d: local [%d,%d), want [%d,%d)",
					tc.off, tc.off+tc.length, lr.server, lr.offset, lr.offset+lr.length, lo, hi)
			}
		}
		if total != tc.length {
			t.Errorf("range [%d,%d): local ranges cover %d bytes", tc.off, tc.off+tc.length, total)
		}
	}
}

func TestActiveReadSurvivesOneKilledServerAsError(t *testing.T) {
	// Killing the storage node mid-request must surface as an error, not
	// a hang or a wrong answer.
	c := startActiveCluster(t, clusterOpts{
		nData: 1, mode: ModeAlwaysAccept, scheme: SchemeAS,
		rate: 1e6, pace: true,
	})
	f, _ := writeFile(t, c.fs, "kill/x", 512<<10, 1)
	done := make(chan error, 1)
	go func() {
		_, err := c.asc.ActiveRead(f, 0, f.Size(), "sum8", nil)
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	c.servers[0].Close() // the only data server
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("active read succeeded after its server died mid-kernel")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("active read hung after server death")
	}
}

func TestActiveReadFailsOverToReplica(t *testing.T) {
	c := startActiveCluster(t, clusterOpts{nData: 3, mode: ModeAlwaysAccept, scheme: SchemeAS})
	f, err := c.fs.CreateReplicated("rep/active", 64<<10, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 9*64<<10)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, b := range data {
		want += uint64(b)
	}

	// Healthy cluster first.
	res, err := c.asc.ActiveRead(f, 0, f.Size(), "sum8", nil)
	if err != nil {
		t.Fatal(err)
	}
	if kernels.Sum8Result(res.Output) != want {
		t.Fatal("healthy replicated sum wrong")
	}

	// Kill one storage node; every part it owned must fail over and the
	// result stay exact.
	c.servers[1].Close()
	res, err = c.asc.ActiveRead(f, 0, f.Size(), "sum8", nil)
	if err != nil {
		t.Fatalf("active read after node death: %v", err)
	}
	if kernels.Sum8Result(res.Output) != want {
		t.Fatal("degraded replicated sum wrong")
	}
	if c.asc.Metrics().Counter("asc.replica_failover").Value() == 0 {
		t.Error("failover not counted")
	}
}

func TestTransformOnReplicatedFileRejected(t *testing.T) {
	c := startActiveCluster(t, clusterOpts{nData: 2, mode: ModeAlwaysAccept, scheme: SchemeAS})
	f, err := c.fs.CreateReplicated("rep/xform", 64<<10, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 1024), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.asc.Transform(f, "rep/xform-out", "gaussian2d", kernels.GaussianParams(32, true)); err == nil {
		t.Fatal("transform of replicated file accepted")
	}
}

func TestClientSchemeAccessors(t *testing.T) {
	c := startActiveCluster(t, clusterOpts{nData: 1, mode: ModeDynamic, scheme: SchemeDOSAS})
	if c.asc.Scheme() != SchemeDOSAS {
		t.Error("scheme accessor wrong")
	}
	if c.asc.Metrics() == nil {
		t.Error("metrics accessor nil")
	}
	if c.asc.Pending() != 0 {
		t.Error("pending should be zero at rest")
	}
}

func TestClientConfigValidation(t *testing.T) {
	if _, err := NewClient(ClientConfig{}); err == nil || !strings.Contains(err.Error(), "pfs.Client") {
		t.Fatalf("err = %v", err)
	}
}

// localRanges edge cases: width-1 coalescing, mid-stripe starts, and
// single-byte tails must each produce exactly one contiguous local range
// per touched server, with correct local offsets.
func TestLocalRangesEdgeCases(t *testing.T) {
	c := startActiveCluster(t, clusterOpts{nData: 3, mode: ModeAlwaysAccept, scheme: SchemeAS})

	// Width 1: everything coalesces to a single range whose local offset
	// equals the file offset.
	f1, _ := writeFile(t, c.fs, "lre/w1", 5*64<<10+1, 1)
	for _, tc := range []struct{ off, length uint64 }{
		{0, f1.Size()}, {17, 3 * 64 << 10}, {5 * 64 << 10, 1},
	} {
		ranges := localRanges(f1, tc.off, tc.length)
		if len(ranges) != 1 {
			t.Fatalf("width 1 [%d,%d): %d ranges", tc.off, tc.off+tc.length, len(ranges))
		}
		if lr := ranges[0]; lr.offset != tc.off || lr.length != tc.length {
			t.Fatalf("width 1 [%d,%d): local [%d,%d)", tc.off, tc.off+tc.length, lr.offset, lr.offset+lr.length)
		}
	}

	// Single-byte tail on a striped file: one 1-byte range on the slot
	// that owns the tail stripe.
	f3, _ := writeFile(t, c.fs, "lre/w3", 3*64<<10+1, 3)
	tail := localRanges(f3, 3*64<<10, 1)
	if len(tail) != 1 || tail[0].length != 1 || tail[0].slot != 0 || tail[0].offset != 64<<10 {
		t.Fatalf("tail ranges = %+v", tail)
	}

	// Mid-stripe start crossing servers: each server gets one range and
	// the first keeps its intra-stripe offset.
	mid := localRanges(f3, 1000, 64<<10)
	if len(mid) != 2 {
		t.Fatalf("mid-stripe ranges = %+v", mid)
	}
	if mid[0].slot != 0 || mid[0].offset != 1000 || mid[0].length != 64<<10-1000 {
		t.Fatalf("mid-stripe first range = %+v", mid[0])
	}
	if mid[1].slot != 1 || mid[1].offset != 0 || mid[1].length != 1000 {
		t.Fatalf("mid-stripe second range = %+v", mid[1])
	}

	// Replicated layout: localRanges describes the primary copy, so the
	// ranges are identical to the unreplicated case.
	fr, err := c.fs.CreateReplicated("lre/rep", 64<<10, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3*64<<10+1)
	if _, err := fr.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	repRanges := localRanges(fr, 1000, 64<<10)
	if len(repRanges) != len(mid) {
		t.Fatalf("replicated ranges = %+v", repRanges)
	}
	// Server identities differ (the metadata server rotates placement per
	// file); the slot-relative geometry must not.
	for i := range mid {
		got, want := repRanges[i], mid[i]
		if got.slot != want.slot || got.offset != want.offset || got.length != want.length {
			t.Fatalf("replicated range %d = %+v, want geometry of %+v", i, got, want)
		}
	}
}
