package dosas_test

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dosas"
	"dosas/internal/workload"
)

func startCluster(t *testing.T, o dosas.Options) *dosas.Cluster {
	t.Helper()
	c, err := dosas.StartCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func connect(t *testing.T, c *dosas.Cluster, s dosas.Scheme) *dosas.FS {
	t.Helper()
	fs, err := c.Connect(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Close)
	return fs
}

func TestPublicQuickstartFlow(t *testing.T) {
	c := startCluster(t, dosas.Options{DataServers: 4})
	fs := connect(t, c, dosas.DOSAS)

	f, err := fs.Create("quick/data")
	if err != nil {
		t.Fatal(err)
	}
	data := workload.RandomBytes(500_000, 1)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

	res, err := f.ReadEx("sum8", nil, 0, f.Size())
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, b := range data {
		want += uint64(b)
	}
	if got := dosas.SumResult(res.Output); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	if !res.Completed {
		t.Error("result not completed")
	}
	if len(res.Parts) == 0 {
		t.Error("no parts recorded")
	}
}

func TestPublicSchemesAgreeOnResults(t *testing.T) {
	c := startCluster(t, dosas.Options{DataServers: 2})
	f0 := connect(t, c, dosas.AS)
	fw, err := f0.Create("agree/x")
	if err != nil {
		t.Fatal(err)
	}
	data := workload.Float64Bytes(workload.FloatSeries(50_000, 2))
	if _, err := fw.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

	var outputs [][]byte
	for _, scheme := range []dosas.Scheme{dosas.TS, dosas.AS, dosas.DOSAS} {
		fs := connect(t, c, scheme)
		f, err := fs.Open("agree/x")
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.ReadEx("moments", nil, 0, f.Size())
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		outputs = append(outputs, res.Output)
	}
	m0, err := dosas.MomentsResult(outputs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(outputs); i++ {
		m, err := dosas.MomentsResult(outputs[i])
		if err != nil {
			t.Fatal(err)
		}
		if m.Count != m0.Count || math.Abs(m.Mean()-m0.Mean()) > 1e-9 {
			t.Errorf("scheme %d disagrees: %+v vs %+v", i, m, m0)
		}
	}
}

func TestPublicFileIO(t *testing.T) {
	c := startCluster(t, dosas.Options{DataServers: 3})
	fs := connect(t, c, dosas.DOSAS)
	f, err := fs.Create("io/cursor", dosas.CreateOptions{StripeSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world" {
		t.Fatalf("got %q", got)
	}
	// Seek from end.
	if _, err := f.Seek(-5, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	tail := make([]byte, 5)
	if _, err := io.ReadFull(f, tail); err != nil {
		t.Fatal(err)
	}
	if string(tail) != "world" {
		t.Fatalf("tail = %q", tail)
	}
}

func TestPublicStatListRemove(t *testing.T) {
	c := startCluster(t, dosas.Options{DataServers: 2})
	fs := connect(t, c, dosas.DOSAS)
	f, err := fs.Create("meta/file", dosas.CreateOptions{StripeSize: 1024, Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte("0123456789"), 0)
	fi, err := fs.Stat("meta/file")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != 10 || fi.StripeSize != 1024 || fi.Width != 2 {
		t.Errorf("info = %+v", fi)
	}
	names, err := fs.List("meta/")
	if err != nil || len(names) != 1 {
		t.Fatalf("list = %v, %v", names, err)
	}
	if err := fs.Remove("meta/file"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("meta/file"); !errors.Is(err, dosas.ErrNotFound) {
		t.Errorf("open removed = %v", err)
	}
	if _, err := fs.Create("meta/dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("meta/dup"); !errors.Is(err, dosas.ErrExists) {
		t.Errorf("dup create = %v", err)
	}
}

func TestMPIIOInterface(t *testing.T) {
	c := startCluster(t, dosas.Options{DataServers: 2})
	fs := connect(t, c, dosas.DOSAS)
	f, err := fs.Create("mpi/file")
	if err != nil {
		t.Fatal(err)
	}
	payload := workload.RandomBytes(64_000, 9)
	var st dosas.Status
	if err := dosas.FileWrite(f, payload, len(payload), dosas.Byte, &st); err != nil {
		t.Fatal(err)
	}
	if st.Count != len(payload) {
		t.Fatalf("write count = %d", st.Count)
	}

	fh, err := dosas.FileOpen(fs, "mpi/file")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1000)
	if err := dosas.FileRead(fh, buf, 1000, dosas.Byte, &st); err != nil {
		t.Fatal(err)
	}
	if st.Count != 1000 || !bytes.Equal(buf, payload[:1000]) {
		t.Fatal("FileRead mismatch")
	}

	// The extended call: sum the next 63000 bytes where the data lives.
	var result dosas.ExResult
	if err := dosas.FileReadEx(fh, &result, 63_000, dosas.Byte, "sum8", nil, &st); err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, b := range payload[1000:64_000] {
		want += uint64(b)
	}
	if got := dosas.SumResult(result.Buf); got != want {
		t.Errorf("ReadEx sum = %d, want %d", got, want)
	}
	if !result.Completed || result.Offset != 64_000 {
		t.Errorf("result = %+v", result)
	}
	if len(st.Where) == 0 {
		t.Error("status lacks execution provenance")
	}

	if err := dosas.FileClose(&fh); err != nil || fh != nil {
		t.Error("FileClose failed")
	}
}

func TestMPIIODatatypes(t *testing.T) {
	sizes := map[dosas.Datatype]int{
		dosas.Byte: 1, dosas.Int32: 4, dosas.Int64: 8,
		dosas.Float32: 4, dosas.Float64: 8,
	}
	for dt, want := range sizes {
		if dt.Size() != want {
			t.Errorf("%v size = %d", dt, dt.Size())
		}
	}
	if dosas.Float64.String() != "MPI_DOUBLE" {
		t.Errorf("name = %s", dosas.Float64)
	}
}

func TestMPIIOFloat64ReadEx(t *testing.T) {
	c := startCluster(t, dosas.Options{DataServers: 2})
	fs := connect(t, c, dosas.AS)
	f, err := fs.Create("mpi/floats")
	if err != nil {
		t.Fatal(err)
	}
	vals := workload.FloatSeries(10_000, 4)
	if _, err := f.WriteAt(workload.Float64Bytes(vals), 0); err != nil {
		t.Fatal(err)
	}
	fh, _ := dosas.FileOpen(fs, "mpi/floats")
	var result dosas.ExResult
	var st dosas.Status
	if err := dosas.FileReadEx(fh, &result, len(vals), dosas.Float64, "sum64", nil, &st); err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, v := range vals {
		want += v
	}
	if got := dosas.Sum64Result(result.Buf); math.Abs(got-want) > math.Abs(want)*1e-9 {
		t.Errorf("sum64 = %v, want %v", got, want)
	}
}

func TestPublicTCPCluster(t *testing.T) {
	c := startCluster(t, dosas.Options{DataServers: 2, TCP: true})
	fs, err := dosas.Connect(dosas.ClientOptions{
		MetaAddr:  c.MetaAddr(),
		DataAddrs: c.DataAddrs(),
		Scheme:    dosas.DOSAS,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	f, err := fs.Create("tcp/file")
	if err != nil {
		t.Fatal(err)
	}
	data := workload.RandomBytes(200_000, 3)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	res, err := f.ReadEx("histogram", nil, 0, f.Size())
	if err != nil {
		t.Fatal(err)
	}
	bins, err := dosas.HistogramResult(res.Output)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, v := range bins {
		total += v
	}
	if total != uint64(len(data)) {
		t.Errorf("histogram total = %d, want %d", total, len(data))
	}
}

func TestPublicDurableCluster(t *testing.T) {
	dir := t.TempDir()
	c1, err := dosas.StartCluster(dosas.Options{DataServers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fs1, err := c1.Connect(dosas.DOSAS)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs1.Create("durable/x")
	if err != nil {
		t.Fatal(err)
	}
	data := workload.RandomBytes(100_000, 5)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// The create and the size update went through the journal, and its
	// batch counters are readable where operators look.
	if st := c1.Stats()["meta"]; st.Counter("meta.journal.records") != 2 || st.Counter("meta.journal.syncs") < 1 || st.Counter("meta.journal.syncs") > 2 {
		t.Errorf("journal counters = %d records in %d syncs, want 2 in 1 or 2",
			st.Counter("meta.journal.records"), st.Counter("meta.journal.syncs"))
	}
	fs1.Close()
	c1.Close()

	// Restart on the same directory: namespace and stripes must survive.
	c2 := startCluster(t, dosas.Options{DataServers: 2, DataDir: dir})
	fs2 := connect(t, c2, dosas.DOSAS)
	g, err := fs2.Open("durable/x")
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost across restart")
	}
}

func TestPublicWidthOneForUncombinable(t *testing.T) {
	c := startCluster(t, dosas.Options{DataServers: 4})
	fs := connect(t, c, dosas.AS)
	f, err := fs.Create("ds/one", dosas.CreateOptions{Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f.StripeWidth() != 1 {
		t.Fatalf("width = %d", f.StripeWidth())
	}
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = float64(i % 17)
	}
	if _, err := f.WriteAt(workload.Float64Bytes(vals), 0); err != nil {
		t.Fatal(err)
	}
	res, err := f.ReadEx("downsample", dosas.DownsampleParams(64), 0, f.Size())
	if err != nil {
		t.Fatal(err)
	}
	if got := dosas.DownsampleResult(res.Output); len(got) != 64 {
		t.Errorf("samples = %d", len(got))
	}
}

func TestPublicTransformTo(t *testing.T) {
	c := startCluster(t, dosas.Options{DataServers: 2})
	fs := connect(t, c, dosas.DOSAS)
	const w, h = 64, 64
	f, err := fs.Create("xf/img", dosas.CreateOptions{Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	img := workload.SyntheticImage(w, h, 1)
	if _, err := f.WriteAt(img, 0); err != nil {
		t.Fatal(err)
	}
	params := dosas.GaussianParams(w, true)
	dst, info, err := f.TransformTo("xf/img-out", "gaussian2d", params)
	if err != nil {
		t.Fatal(err)
	}
	if info.BytesWritten != uint64(len(img)) {
		t.Errorf("wrote %d", info.BytesWritten)
	}
	got, err := dst.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(img) {
		t.Fatalf("output size = %d", len(got))
	}
	// The output must be findable by name and reduced traffic verified:
	// run a digest over the new file.
	res, err := dst.ReadEx("gaussian2d", dosas.GaussianParams(w, false), 0, dst.Size())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dosas.GaussianDigestResult(res.Output); err != nil {
		t.Fatal(err)
	}
	// Non-size-preserving ops are refused.
	if _, _, err := f.TransformTo("xf/bad", "sum8", nil); err == nil {
		t.Error("sum8 transform accepted")
	}
}

func TestPublicReplication(t *testing.T) {
	c := startCluster(t, dosas.Options{DataServers: 3})
	fs := connect(t, c, dosas.DOSAS)
	f, err := fs.Create("rep/pub", dosas.CreateOptions{StripeSize: 8192, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if f.Replicas() != 2 {
		t.Fatalf("replicas = %d", f.Replicas())
	}
	data := workload.RandomBytes(200_000, 4)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	fi, err := fs.Stat("rep/pub")
	if err != nil || fi.Replicas != 2 {
		t.Fatalf("stat = %+v, %v", fi, err)
	}
	got, err := f.ReadAll()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("replicated round trip: %v", err)
	}
	// Over-replication is rejected.
	if _, err := fs.Create("rep/toomany", dosas.CreateOptions{Width: 2, Replicas: 3}); err == nil {
		t.Error("replicas > width accepted")
	}
}

func TestPublicVerifyAndRepair(t *testing.T) {
	dir := t.TempDir()
	c := startCluster(t, dosas.Options{DataServers: 2, DataDir: dir})
	fs := connect(t, c, dosas.DOSAS)
	f, err := fs.Create("vr/x", dosas.CreateOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	data := workload.RandomBytes(300_000, 6)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := fs.Verify("vr/x", true)
	if err != nil || !rep.OK() {
		t.Fatalf("verify: %+v, %v", rep, err)
	}
	// Corrupt one replica stream directly on disk, then detect and
	// repair through the public API.
	matches, err := filepathGlob(dir)
	if err != nil || len(matches) == 0 {
		t.Fatalf("no replica object files found: %v", err)
	}
	// Flip a byte in some stream file that belongs to a replica (tagged
	// handles are huge, so their hex names start with a replica tag).
	corrupted := false
	for _, m := range matches {
		if strings.Contains(m, "h01") { // replica 1 tag (r<<56)
			raw, err := os.ReadFile(m)
			if err != nil || len(raw) == 0 {
				continue
			}
			raw[len(raw)/2] ^= 0xFF
			if err := os.WriteFile(m, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Skip("no replica stream file found to corrupt")
	}
	rep, err = fs.Verify("vr/x", true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("verify missed on-disk corruption")
	}
	rep, err = fs.Repair("vr/x")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("repair failed: %v", rep.Issues)
	}
}

// filepathGlob lists all stripe object files under a cluster data dir.
func filepathGlob(dir string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".dat") || strings.HasSuffix(path, ".ext")) {
			out = append(out, path)
		}
		return nil
	})
	return out, err
}

func TestPublicFilterImageStriped(t *testing.T) {
	c := startCluster(t, dosas.Options{DataServers: 3})
	fs := connect(t, c, dosas.DOSAS)
	const w = 256
	img := workload.SyntheticImage(w, 1024, 8) // 256 KiB over 4 stripes
	f, err := fs.Create("img/pub", dosas.CreateOptions{StripeSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(img, 0); err != nil {
		t.Fatal(err)
	}
	got, err := f.FilterImage(w)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: a width-1 copy filtered by the plain full-image kernel.
	ref, err := fs.Create("img/pub-ref", dosas.CreateOptions{Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.WriteAt(img, 0); err != nil {
		t.Fatal(err)
	}
	res, err := ref.ReadEx("gaussian2d", dosas.GaussianParams(w, true), 0, ref.Size())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, res.Output) {
		t.Fatal("striped FilterImage disagrees with single-node filter")
	}
}

func TestPublicTraceDump(t *testing.T) {
	c := startCluster(t, dosas.Options{DataServers: 1, Policy: dosas.AlwaysAccept})
	fs := connect(t, c, dosas.AS)
	f, err := fs.Create("tr/x", dosas.CreateOptions{Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt(workload.RandomBytes(10_000, 1), 0)
	if _, err := f.ReadEx("sum8", nil, 0, f.Size()); err != nil {
		t.Fatal(err)
	}
	dump, err := c.TraceDump(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"arrive", "admit", "start", "complete", "op=sum8"} {
		if !strings.Contains(dump, want) {
			t.Errorf("trace missing %q:\n%s", want, dump)
		}
	}
	if _, err := c.TraceDump(9); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestOpsListsKernels(t *testing.T) {
	ops := dosas.Ops()
	if len(ops) < 8 {
		t.Fatalf("ops = %v", ops)
	}
}

func TestCalibrateProducesPositiveRate(t *testing.T) {
	rate, err := dosas.Calibrate("sum8", 1<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 {
		t.Fatalf("rate = %v", rate)
	}
}

// TestPublicZeroCopyReadPath reads a disk-backed file over real TCP and
// checks the serving-path accounting: bulk reads leave the server from the
// extent files' mappings by writev (on Linux), with no user-space copy.
func TestPublicZeroCopyReadPath(t *testing.T) {
	t.Run("mux", func(t *testing.T) {
		c := startCluster(t, dosas.Options{
			DataServers: 1, DataDir: t.TempDir(),
			TCP: true,
		})
		fs := connect(t, c, dosas.DOSAS)
		f, err := fs.Create("zc/x")
		if err != nil {
			t.Fatal(err)
		}
		data := workload.RandomBytes(1<<20, 11)
		if _, err := f.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("zero-copy read returned wrong bytes")
		}
		st := c.Stats()["data-0"]
		if copied := st.Counter("data.bytes_copied"); copied != 0 {
			t.Errorf("data.bytes_copied = %d, want 0 (bulk read should serve by reference)", copied)
		}
		if copied := st.Counter("wire.copied_bytes"); copied != 0 {
			t.Errorf("wire.copied_bytes = %d, want 0 (no body staged by the frame writer)", copied)
		}
		if runtime.GOOS == "linux" {
			if m := st.Counter("wire.mapped_bytes"); m < int64(len(data)) {
				t.Errorf("wire.mapped_bytes = %d, want >= %d", m, len(data))
			}
		}
	})
}
