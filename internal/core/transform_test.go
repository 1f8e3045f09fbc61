package core

import (
	"bytes"
	"testing"

	"dosas/internal/kernels"
)

func TestTransformSingleServerExactGaussian(t *testing.T) {
	c := startActiveCluster(t, clusterOpts{nData: 2, mode: ModeDynamic, scheme: SchemeDOSAS})
	const w, h = 128, 64
	f, data := writeFile(t, c.fs, "xf/src", w*h, 1)

	params := kernels.GaussianParams(w, true)
	dst, res, err := c.asc.Transform(f, "xf/dst", "gaussian2d", params)
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesWritten != uint64(len(data)) {
		t.Errorf("wrote %d, want %d", res.BytesWritten, len(data))
	}
	if dst.Size() != uint64(len(data)) {
		t.Errorf("dst size = %d", dst.Size())
	}

	// The destination must hold exactly what a local filter produces.
	k, _ := kernels.New("gaussian2d")
	k.Configure(params)
	k.Process(data)
	want, _ := k.Result()
	got, err := dst.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("transform output disagrees with local reference")
	}

	// Layouts must be identical (co-location).
	if f.Layout().Servers[0] != dst.Layout().Servers[0] {
		t.Error("destination placed on a different server than the source")
	}
}

func TestTransformStripedFile(t *testing.T) {
	c := startActiveCluster(t, clusterOpts{nData: 3, mode: ModeAlwaysAccept, scheme: SchemeAS})
	const w = 256
	// 768 rows = 192 KiB = exactly three 64 KiB stripes, one per server.
	f, data := writeFile(t, c.fs, "xf/striped", w*768, 3)

	dst, res, err := c.asc.Transform(f, "xf/striped-out", "gaussian2d", kernels.GaussianParams(w, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesWritten != uint64(len(data)) || dst.Size() != uint64(len(data)) {
		t.Errorf("written=%d size=%d want %d", res.BytesWritten, dst.Size(), len(data))
	}
	if len(res.Parts) != 3 {
		t.Errorf("parts = %d", len(res.Parts))
	}
	// Per-node semantics: each node's local output equals a local filter
	// of its local input stream.
	for slot, srv := range f.Layout().Servers {
		store := c.runtimes[srv].cfg.Store
		localLen := store.Size(f.Handle())
		in := make([]byte, localLen)
		if _, err := store.ReadAt(f.Handle(), in, 0); err != nil {
			t.Fatal(err)
		}
		k, _ := kernels.New("gaussian2d")
		k.Configure(kernels.GaussianParams(w, true))
		k.Process(in)
		want, _ := k.Result()
		out := make([]byte, store.Size(dst.Handle()))
		if _, err := store.ReadAt(dst.Handle(), out, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, want) {
			t.Errorf("slot %d: node-local output mismatch", slot)
		}
	}
}

func TestTransformRejectsNonSizePreserving(t *testing.T) {
	c := startActiveCluster(t, clusterOpts{nData: 1, mode: ModeAlwaysAccept, scheme: SchemeAS})
	f, _ := writeFile(t, c.fs, "xf/bad", 10_000, 1)
	if _, _, err := c.asc.Transform(f, "xf/bad-out", "sum8", nil); err == nil {
		t.Fatal("sum8 transform accepted")
	}
	if _, _, err := c.asc.Transform(f, "xf/bad-out2", "gaussian2d", kernels.GaussianParams(64, false)); err == nil {
		t.Fatal("digest-mode gaussian transform accepted")
	}
}

func TestTransformRejectsUnknownOpAndEmptyFile(t *testing.T) {
	c := startActiveCluster(t, clusterOpts{nData: 1, mode: ModeAlwaysAccept, scheme: SchemeAS})
	f, _ := writeFile(t, c.fs, "xf/src2", 1000, 1)
	if _, _, err := c.asc.Transform(f, "xf/x", "bogus", nil); err == nil {
		t.Fatal("unknown op accepted")
	}
	empty, err := c.fs.Create("xf/empty", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.asc.Transform(empty, "xf/e-out", "gaussian2d", kernels.GaussianParams(64, true)); err == nil {
		t.Fatal("empty-file transform accepted")
	}
}

// TestFailedTransformLeavesNoStripes: when one part's server refuses (its
// runtime is closed), the other parts have already written the
// destination's stripes under a recorded size of 0, which no Remove would
// sweep; Transform removes them before it returns its error.
func TestFailedTransformLeavesNoStripes(t *testing.T) {
	c := startActiveCluster(t, clusterOpts{nData: 3, mode: ModeAlwaysAccept, scheme: SchemeAS})
	const w = 256
	f, _ := writeFile(t, c.fs, "xf/src-fail", w*768, 3) // one 64 KiB stripe per server
	c.runtimes[1].Close()
	if _, _, err := c.asc.Transform(f, "xf/dst-fail", "gaussian2d", kernels.GaussianParams(w, true)); err == nil {
		t.Fatal("transform succeeded with one server refusing its part")
	}
	st, err := c.fs.Stat("xf/dst-fail")
	if err != nil {
		t.Fatal(err)
	}
	for i, store := range c.stores {
		if n := store.Size(st.Handle); n != 0 {
			t.Errorf("server %d still holds %d bytes of the failed transform's destination", i, n)
		}
	}
}

func TestTransformQueuesBehindActiveWork(t *testing.T) {
	// A transform and active reads share the kernel core pool; both must
	// complete under concurrency.
	c := startActiveCluster(t, clusterOpts{nData: 1, mode: ModeAlwaysAccept, scheme: SchemeAS})
	const w = 64
	f, data := writeFile(t, c.fs, "xf/busy", w*64, 1)
	done := make(chan error, 4)
	for i := 0; i < 3; i++ {
		go func() {
			_, err := c.asc.ActiveRead(f, 0, uint64(len(data)), "sum8", nil)
			done <- err
		}()
	}
	go func() {
		_, _, err := c.asc.Transform(f, "xf/busy-out", "gaussian2d", kernels.GaussianParams(w, true))
		done <- err
	}()
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestCreatePlacedHonoursLayout(t *testing.T) {
	c := startActiveCluster(t, clusterOpts{nData: 4, mode: ModeAlwaysAccept, scheme: SchemeAS})
	f, err := c.fs.CreatePlaced("placed/x", 4096, []uint32{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	servers := f.Layout().Servers
	if len(servers) != 2 || servers[0] != 3 || servers[1] != 1 {
		t.Fatalf("layout = %v", servers)
	}
	if _, err := c.fs.CreatePlaced("placed/bad", 4096, []uint32{9}); err == nil {
		t.Fatal("out-of-range placement accepted")
	}
}
