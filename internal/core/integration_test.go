package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dosas/internal/ioqueue"
	"dosas/internal/kernels"
	"dosas/internal/metrics"
	"dosas/internal/pfs"
	"dosas/internal/tenant"
	"dosas/internal/trace"
	"dosas/internal/transport"
	"dosas/internal/wire"
)

// activeCluster is a full in-process DOSAS deployment: metadata server,
// data servers with active runtimes attached, and an ASC.
type activeCluster struct {
	fs       *pfs.Client
	asc      *Client
	runtimes []*Runtime
	data     []*pfs.DataServer
	servers  []*pfs.Server
	stores   []pfs.Store
}

type clusterOpts struct {
	nData  int
	mode   Mode
	scheme Scheme
	rate   float64 // injected kernel rate for estimation AND pacing
	pace   bool
	bw     float64
	period time.Duration
	extent bool           // extent stores on disk instead of MemStores
	qos    *pfs.QoSConfig // the data servers' admission gate (nil: none)
}

func startActiveCluster(t *testing.T, o clusterOpts) *activeCluster {
	t.Helper()
	if o.nData == 0 {
		o.nData = 1
	}
	if o.bw == 0 {
		o.bw = 118e6
	}
	net := transport.NewInproc()
	meta, err := pfs.NewMetaServer(pfs.MetaConfig{NumDataServers: o.nData})
	if err != nil {
		t.Fatal(err)
	}
	ml, _ := net.Listen("meta")
	ms := pfs.NewServer(ml, meta)
	ms.Start()
	t.Cleanup(ms.Close)

	rateFor := kernels.RateFor
	if o.rate > 0 {
		rateFor = func(string) float64 { return o.rate }
	}

	var dataAddrs []string
	var runtimes []*Runtime
	var data []*pfs.DataServer
	var servers []*pfs.Server
	var stores []pfs.Store
	for i := 0; i < o.nData; i++ {
		reg := metrics.NewRegistry()
		var store pfs.Store = pfs.NewMemStore()
		if o.extent {
			es, err := pfs.NewExtentStore(pfs.ExtentConfig{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { es.Close() })
			store = es
		}
		stores = append(stores, store)
		ds, err := pfs.NewDataServer(pfs.DataConfig{Store: store, Metrics: reg, QoS: o.qos})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := NewRuntime(RuntimeConfig{
			Store:   store,
			Mode:    o.mode,
			Tenants: tenant.NewTable(0),
			Estimator: EstimatorConfig{
				BW:      o.bw,
				RateFor: rateFor,
				Period:  o.period,
			},
			ChunkSize: 64 << 10,
			Pace:      o.pace,
			Metrics:   reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		ds.SetActiveHandler(rt)
		addr := fmt.Sprintf("data-%d", i)
		dl, _ := net.Listen(addr)
		srv := pfs.NewServer(dl, ds)
		srv.Start()
		t.Cleanup(srv.Close)
		dataAddrs = append(dataAddrs, addr)
		runtimes = append(runtimes, rt)
		data = append(data, ds)
		servers = append(servers, srv)
	}

	fs, err := pfs.NewClient(pfs.ClientConfig{Net: net, MetaAddr: "meta", DataAddrs: dataAddrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Close)
	asc, err := NewClient(ClientConfig{FS: fs, Scheme: o.scheme, ChunkSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return &activeCluster{fs: fs, asc: asc, runtimes: runtimes, data: data, servers: servers, stores: stores}
}

// writeFile creates a striped file with deterministic pseudo-random bytes.
func writeFile(t *testing.T, fs *pfs.Client, name string, size int, width int) (*pfs.File, []byte) {
	t.Helper()
	f, err := fs.Create(name, 64<<10, width)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	rand.New(rand.NewSource(42)).Read(data)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	return f, data
}

func byteSum(data []byte) uint64 {
	var s uint64
	for _, b := range data {
		s += uint64(b)
	}
	return s
}

func TestActiveReadOnStorageAS(t *testing.T) {
	c := startActiveCluster(t, clusterOpts{nData: 1, mode: ModeAlwaysAccept, scheme: SchemeAS})
	f, data := writeFile(t, c.fs, "as/sum", 300_000, 1)
	res, err := c.asc.ActiveRead(f, 0, uint64(len(data)), "sum8", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := kernels.Sum8Result(res.Output); got != byteSum(data) {
		t.Errorf("sum = %d, want %d", got, byteSum(data))
	}
	if len(res.Parts) != 1 || res.Parts[0].Where != OnStorage {
		t.Errorf("parts = %+v, want storage execution", res.Parts)
	}
	// Active storage's whole point: only the 8-byte result moved.
	if res.BytesShipped() != 8 {
		t.Errorf("shipped %d bytes, want 8", res.BytesShipped())
	}
}

func TestActiveReadMultiServerCombines(t *testing.T) {
	c := startActiveCluster(t, clusterOpts{nData: 4, mode: ModeAlwaysAccept, scheme: SchemeAS})
	f, data := writeFile(t, c.fs, "as/striped", 1_000_000, 4)
	res, err := c.asc.ActiveRead(f, 0, uint64(len(data)), "sum8", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := kernels.Sum8Result(res.Output); got != byteSum(data) {
		t.Errorf("striped sum = %d, want %d", got, byteSum(data))
	}
	if len(res.Parts) != 4 {
		t.Errorf("parts = %d, want 4", len(res.Parts))
	}
	for _, p := range res.Parts {
		if p.Where != OnStorage {
			t.Errorf("part on server %d ran %v", p.Server, p.Where)
		}
	}
}

func TestActiveReadSubrange(t *testing.T) {
	c := startActiveCluster(t, clusterOpts{nData: 2, mode: ModeAlwaysAccept, scheme: SchemeAS})
	f, data := writeFile(t, c.fs, "as/subrange", 500_000, 2)
	off, n := uint64(123_456), uint64(100_000)
	res, err := c.asc.ActiveRead(f, off, n, "sum8", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := kernels.Sum8Result(res.Output), byteSum(data[off:off+n]); got != want {
		t.Errorf("subrange sum = %d, want %d", got, want)
	}
}

func TestTSSchemeComputesLocally(t *testing.T) {
	c := startActiveCluster(t, clusterOpts{nData: 2, mode: ModeAlwaysAccept, scheme: SchemeTS})
	f, data := writeFile(t, c.fs, "ts/sum", 400_000, 2)
	res, err := c.asc.ActiveRead(f, 0, uint64(len(data)), "sum8", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := kernels.Sum8Result(res.Output); got != byteSum(data) {
		t.Errorf("sum = %d, want %d", got, byteSum(data))
	}
	for _, p := range res.Parts {
		if p.Where != OnCompute {
			t.Errorf("TS part ran %v", p.Where)
		}
	}
	// TS ships all raw bytes.
	if res.BytesShipped() != uint64(len(data)) {
		t.Errorf("shipped %d, want %d", res.BytesShipped(), len(data))
	}
}

func TestServerBounceFallsBackTransparently(t *testing.T) {
	c := startActiveCluster(t, clusterOpts{nData: 1, mode: ModeAlwaysBounce, scheme: SchemeDOSAS})
	f, data := writeFile(t, c.fs, "bounce/sum", 200_000, 1)
	res, err := c.asc.ActiveRead(f, 0, uint64(len(data)), "sum8", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := kernels.Sum8Result(res.Output); got != byteSum(data) {
		t.Errorf("sum = %d, want %d", got, byteSum(data))
	}
	if res.Parts[0].Where != OnCompute {
		t.Errorf("bounced part ran %v", res.Parts[0].Where)
	}
}

func TestGaussianActiveMatchesLocal(t *testing.T) {
	c := startActiveCluster(t, clusterOpts{nData: 1, mode: ModeAlwaysAccept, scheme: SchemeAS})
	const w, h = 256, 128
	f, data := writeFile(t, c.fs, "as/img", w*h, 1)
	params := kernels.GaussianParams(w, false)
	res, err := c.asc.ActiveRead(f, 0, uint64(len(data)), "gaussian2d", params)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: run the kernel directly over the same bytes.
	k, _ := kernels.New("gaussian2d")
	k.Configure(params)
	k.Process(data)
	want, _ := k.Result()
	if !bytes.Equal(res.Output, want) {
		t.Error("storage-side gaussian digest disagrees with local reference")
	}
}

func TestDownsampleMultiServerRejected(t *testing.T) {
	c := startActiveCluster(t, clusterOpts{nData: 2, mode: ModeAlwaysAccept, scheme: SchemeAS})
	f, _ := writeFile(t, c.fs, "as/ds", 400_000, 2)
	_, err := c.asc.ActiveRead(f, 0, f.Size(), "downsample", kernels.DownsampleParams(4))
	if err == nil {
		t.Fatal("uncombinable op over 2 servers must fail fast")
	}
}

func TestDownsampleSingleServerWorks(t *testing.T) {
	c := startActiveCluster(t, clusterOpts{nData: 2, mode: ModeAlwaysAccept, scheme: SchemeAS})
	vals := make([]float64, 10_000)
	for i := range vals {
		vals[i] = float64(i)
	}
	raw := make([]byte, 0, len(vals)*8)
	for _, v := range vals {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		raw = append(raw, b[:]...)
	}
	f, err := c.fs.Create("as/ds1", 64<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	res, err := c.asc.ActiveRead(f, 0, f.Size(), "downsample", kernels.DownsampleParams(100))
	if err != nil {
		t.Fatal(err)
	}
	got := kernels.DownsampleResult(res.Output)
	if len(got) != 100 {
		t.Fatalf("samples = %d", len(got))
	}
	if got[0] != 49.5 { // mean of 0..99
		t.Errorf("first sample = %v", got[0])
	}
}

func TestDynamicBouncesUnderContention(t *testing.T) {
	// Slow kernels (2 MB/s) against a fast network: the solver should
	// accept the first request and bounce the pile-up, as in Figure 1's
	// contention scenario.
	c := startActiveCluster(t, clusterOpts{
		nData: 1, mode: ModeDynamic, scheme: SchemeDOSAS,
		rate: 2e6, pace: true, period: 10 * time.Millisecond,
	})
	const size = 256 << 10
	const n = 6
	files := make([]*pfs.File, n)
	datas := make([][]byte, n)
	for i := range files {
		files[i], datas[i] = writeFile(t, c.fs, fmt.Sprintf("dyn/%d", i), size, 1)
	}
	var wg sync.WaitGroup
	wheres := make([]Where, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.asc.ActiveRead(files[i], 0, size, "sum8", nil)
			if err != nil {
				t.Errorf("req %d: %v", i, err)
				return
			}
			if got := kernels.Sum8Result(res.Output); got != byteSum(datas[i]) {
				t.Errorf("req %d: wrong sum", i)
			}
			wheres[i] = res.Parts[0].Where
		}(i)
	}
	wg.Wait()
	var onCompute int
	for _, w := range wheres {
		if w == OnCompute || w == Migrated {
			onCompute++
		}
	}
	if onCompute == 0 {
		t.Errorf("no request was bounced under contention: %v", wheres)
	}
}

func TestCancelMigratesRunningKernel(t *testing.T) {
	// A slow paced kernel is cancelled mid-flight; the ASC must finish it
	// locally from the checkpoint with a correct result, and the node
	// records the migration once in each of its sinks.
	c := startActiveCluster(t, clusterOpts{
		nData: 1, mode: ModeAlwaysAccept, scheme: SchemeDOSAS,
		rate: 1e6, pace: true, period: time.Hour, // no policy interference
	})
	const size = 512 << 10 // ~0.5 s at 1 MB/s
	f, data := writeFile(t, c.fs, "cancel/sum", size, 1)

	type out struct {
		res *Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := c.asc.ActiveRead(f, 0, size, "sum8", nil)
		done <- out{res, err}
	}()
	// Once the kernel has consumed its first chunk, cancel it server-side:
	// a cancel names its request by request id and trace id.
	rt := c.runtimes[0]
	var traceID uint64
	waitUntil(t, "the kernel to consume its first chunk", func() bool {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		if len(rt.tasks) != 1 || rt.tasks[0].processed.Load() == 0 {
			return false
		}
		traceID = rt.tasks[0].traceID
		return true
	})
	addr, _ := c.fs.DataAddr(0)
	resp, err := c.fs.Pool().Call(addr, &wire.CancelReq{RequestID: 1, TraceID: traceID})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.(*wire.CancelResp).Found {
		t.Fatal("the cancel did not find the running kernel")
	}
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if got := kernels.Sum8Result(o.res.Output); got != byteSum(data) {
		t.Errorf("migrated sum = %d, want %d", got, byteSum(data))
	}
	if n := rt.reg.Counter("active.migrated").Value(); n != 1 {
		t.Errorf("active.migrated = %d, want 1", n)
	}
	var migrates int
	for _, ev := range rt.cfg.Trace.Snapshot() {
		if ev.Kind == trace.KindMigrate {
			migrates++
		}
	}
	if migrates != 1 {
		t.Errorf("%d migrate events, want 1", migrates)
	}
	var interrupts uint64
	for _, u := range rt.cfg.Tenants.Snapshot() {
		interrupts += u.Interrupts
	}
	if interrupts != 1 {
		t.Errorf("tenant interrupts = %d, want 1", interrupts)
	}
}

// TestProbeOverWire: a remote probe carries the runtime's cores and the
// data server's normal-I/O half — a read held at the admission gate is in
// QueueLen, its bytes in BytesQueued.
func TestProbeOverWire(t *testing.T) {
	c := startActiveCluster(t, clusterOpts{nData: 1, mode: ModeDynamic, scheme: SchemeDOSAS, qos: &pfs.QoSConfig{Slots: 1}})
	f, _ := writeFile(t, c.fs, "probe/x", 100_000, 1)
	addr, _ := c.fs.DataAddr(0)
	probe := func() *wire.ProbeResp {
		t.Helper()
		resp, err := c.fs.Pool().Call(addr, &wire.ProbeReq{})
		if err != nil {
			t.Fatal(err)
		}
		p, ok := resp.(*wire.ProbeResp)
		if !ok {
			t.Fatalf("resp = %T", resp)
		}
		return p
	}
	p := probe()
	if p.TotalCores != 2 {
		t.Errorf("cores = %d", p.TotalCores)
	}
	if p.QueueLen != 0 || p.BytesQueued != 0 {
		t.Errorf("idle probe = %+v", p)
	}
	// Take the gate's one slot, so a normal read queues behind it.
	slot := c.data[0].Gate().Enqueue(ioqueue.Normal, "", 0)
	if !slot.Wait() {
		t.Fatal("gate refused the slot")
	}
	done := make(chan error, 1)
	go func() {
		_, err := f.ReadAt(make([]byte, 4096), 0)
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); p.QueueLen == 0 && time.Now().Before(deadline); p = probe() {
		time.Sleep(time.Millisecond)
	}
	if p.QueueLen < 1 || p.BytesQueued < 4096 {
		t.Errorf("probe with a read held at the gate = %+v, want QueueLen ≥ 1 and BytesQueued ≥ 4096", p)
	}
	slot.Release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestActiveReadValidation(t *testing.T) {
	c := startActiveCluster(t, clusterOpts{nData: 1, mode: ModeAlwaysAccept, scheme: SchemeAS})
	f, _ := writeFile(t, c.fs, "val/x", 1000, 1)
	if _, err := c.asc.ActiveRead(f, 0, 0, "sum8", nil); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := c.asc.ActiveRead(f, 0, 2000, "sum8", nil); err == nil {
		t.Error("read beyond EOF accepted")
	}
	if _, err := c.asc.ActiveRead(f, 0, 1000, "no-such-kernel", nil); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestUnknownOpRejectedByRuntime(t *testing.T) {
	c := startActiveCluster(t, clusterOpts{nData: 1, mode: ModeAlwaysAccept, scheme: SchemeAS})
	f, _ := writeFile(t, c.fs, "unk/x", 100, 1)
	addr, _ := c.fs.DataAddr(0)
	_, err := c.fs.Pool().Call(addr, &wire.ActiveReadReq{
		Handle: f.Handle(), Length: 100, Op: "bogus",
	})
	if err == nil {
		t.Fatal("runtime accepted unknown op")
	}
}
