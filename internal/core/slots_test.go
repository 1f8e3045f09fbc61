package core

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"dosas/internal/kernels"
	"dosas/internal/pfs"
	"dosas/internal/wire"
)

// Test kernels: sum8 with a side effect in Process.
func init() {
	kernels.Register("test.truncating", func() kernels.Kernel {
		k, _ := kernels.New("sum8")
		return &truncatingKernel{Kernel: k}
	})
	kernels.Register("test.recording", func() kernels.Kernel {
		k, _ := kernels.New("sum8")
		return recordingKernel{k}
	})
}

// truncateInput is what a test.truncating kernel does to its own input
// before its first chunk, which it is handed: cut the extent file the chunk
// is mapped from.
var truncateInput atomic.Value // func(chunk []byte)

type truncatingKernel struct {
	kernels.Kernel
	started bool
}

func (k *truncatingKernel) Process(chunk []byte) error {
	if !k.started {
		k.started = true
		truncateInput.Load().(func([]byte))(chunk)
	}
	return k.Kernel.Process(chunk)
}

// inProcess counts test.recording kernels inside Process, across every
// runtime; maxInProcess is the most ever seen at once.
var inProcess, maxInProcess atomic.Int64

type recordingKernel struct{ kernels.Kernel }

func (k recordingKernel) Process(chunk []byte) error {
	n := inProcess.Add(1)
	for m := maxInProcess.Load(); n > m && !maxInProcess.CompareAndSwap(m, n); m = maxInProcess.Load() {
	}
	time.Sleep(200 * time.Microsecond) // long enough for the others to pile up at the slots
	err := k.Kernel.Process(chunk)
	inProcess.Add(-1)
	return err
}

func sumOf(n int) uint64 {
	var want uint64
	for i := 0; i < n; i++ {
		want += uint64(byte(i))
	}
	return want
}

// TestRuntimeInputTruncatedUnderKernel: a kernel whose mapped input is cut
// under it (here by the kernel itself, through the store, before it reads
// its first chunk) fails its request with ErrInputTruncated instead of
// taking the node down; the node serves the next request from a mapping;
// closing the store unmaps everything. Each cut leaves the chunk's first
// page or pages and faults at the next one, which lies in the chunk's whole
// 64-byte blocks: on amd64, inside sum8's assembly loop.
func TestRuntimeInputTruncatedUnderKernel(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("kernels read copies, not mappings, off Linux")
	}
	c := startActiveCluster(t, clusterOpts{nData: 1, mode: ModeAlwaysAccept, scheme: SchemeAS, extent: true})
	es := c.stores[0].(*pfs.ExtentStore)
	page := uintptr(os.Getpagesize())
	for i, cut := range []uint64{1, 32<<10 + 1} {
		f, _ := writeFile(t, c.fs, fmt.Sprintf("fault/input%d", i), 256<<10, 1)
		var base, blocks uintptr // the first chunk's address and whole 64-byte blocks
		truncateInput.Store(func(chunk []byte) {
			base, blocks = uintptr(unsafe.Pointer(unsafe.SliceData(chunk))), uintptr(len(chunk)&^63)
			if err := es.Truncate(f.Handle(), cut); err != nil {
				t.Error(err)
			}
		})
		_, err := c.asc.ActiveRead(f, 0, f.Size(), "test.truncating", nil)
		var re *pfs.RemoteError
		if !errors.As(err, &re) || re.Code != wire.StatusInvalid || !strings.Contains(re.Detail, ErrInputTruncated.Error()) {
			t.Fatalf("ActiveRead over an input cut at %d under the kernel: err = %v, want %v as StatusInvalid", cut, err, ErrInputTruncated)
		}
		var addr uintptr
		_, at, ok := strings.Cut(re.Detail, "fault at ")
		if _, err := fmt.Sscanf(at, "%v", &addr); !ok || err != nil {
			t.Fatalf("no fault address in %q: %v", re.Detail, err)
		}
		// The mapping starts on a page, so the first page past the cut is the
		// first one the kernel cannot read.
		if first := base + (uintptr(cut)+page-1)/page*page; addr != first || addr >= base+blocks {
			t.Fatalf("cut at %d faulted at chunk offset %d, want %d inside the chunk's whole blocks [0, %d)",
				cut, addr-base, first-base, blocks)
		}
	}

	g, data := writeFile(t, c.fs, "fault/next", 256<<10, 1)
	res, err := c.asc.ActiveRead(g, 0, g.Size(), "sum8", nil)
	if err != nil {
		t.Fatalf("next request after the fault: %v", err)
	}
	if got := kernels.Sum8Result(res.Output); got != byteSum(data) {
		t.Fatalf("next request: sum8 = %d, want %d", got, byteSum(data))
	}
	if es.MappedExtents() == 0 {
		t.Fatal("the next request's input was not mapped")
	}
	c.runtimes[0].Close()
	if err := es.Close(); err != nil {
		t.Fatal(err)
	}
	if got := es.MappedExtents(); got != 0 {
		t.Fatalf("%d extent mappings left after Close", got)
	}
}

// TestKernelSlotsBoundProcess: one more runtime than there are slots, each
// with its one worker (ActiveCores) and two requests at once, never have
// more than max(1, GOMAXPROCS−1) kernels inside Process — and do reach that
// many.
func TestKernelSlotsBoundProcess(t *testing.T) {
	if want := max(1, runtime.GOMAXPROCS(0)-1); cap(kernelSlots) != want {
		t.Fatalf("%d kernel slots at GOMAXPROCS=%d, want %d", cap(kernelSlots), runtime.GOMAXPROCS(0), want)
	}
	const size = 64 << 10
	cfg := RuntimeConfig{Mode: ModeAlwaysAccept, ChunkSize: 8 << 10}
	rts := make([]*Runtime, cap(kernelSlots)+1)
	for i := range rts {
		rts[i], _ = newTestRuntime(t, cfg, size)
	}
	maxInProcess.Store(0)
	var wg sync.WaitGroup
	for i := 0; i < 2*len(rts); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rt := rts[i%len(rts)]
			resp, err := rt.HandleActive(&wire.ActiveReadReq{RequestID: uint64(i + 1), Handle: 1, Length: size, Op: "test.recording"})
			if err != nil || resp.Disposition != wire.ActiveDone || kernels.Sum8Result(resp.Result) != sumOf(size) {
				t.Errorf("request %d: %+v, %v", i, resp, err)
			}
		}(i)
	}
	wg.Wait()
	if got := maxInProcess.Load(); got != int64(cap(kernelSlots)) {
		t.Fatalf("at most %d kernels in Process at once, want exactly %d", got, cap(kernelSlots))
	}
}

// holdAllSlots takes every kernel slot, failing the test if that takes
// longer than a second, and returns the function that gives them back.
func holdAllSlots(t *testing.T) func() {
	t.Helper()
	for i := 0; i < cap(kernelSlots); i++ {
		select {
		case kernelSlots <- struct{}{}:
		case <-time.After(time.Second):
			t.Fatal("a kernel slot stayed taken for a second")
		}
	}
	return func() {
		for i := 0; i < cap(kernelSlots); i++ {
			<-kernelSlots
		}
	}
}

// TestKernelSlotsFreeWhilePaced: a paced kernel holds a slot only while it
// computes a chunk, not while it sleeps the chunk out — and needs one to
// compute at all.
func TestKernelSlotsFreeWhilePaced(t *testing.T) {
	const size = 256 << 10
	rt, reg := newTestRuntime(t, RuntimeConfig{
		Mode:      ModeAlwaysAccept,
		Estimator: EstimatorConfig{BW: 118e6, RateFor: func(string) float64 { return 1e6 }},
		ChunkSize: 16 << 10, // 16 ms a chunk at 1 MB/s
		Pace:      true,
	}, size)
	done := make(chan *wire.ActiveReadResp, 1)
	go func() {
		resp, err := rt.HandleActive(&wire.ActiveReadReq{RequestID: 1, Handle: 1, Length: size, Op: "sum8"})
		if err != nil {
			t.Error(err)
		}
		done <- resp
	}()
	processed := reg.Counter("active.bytes_processed")
	for processed.Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	held := 0
	const samples = 100
	for i := 0; i < samples; i++ {
		if len(kernelSlots) > 0 {
			held++
		}
		time.Sleep(time.Millisecond)
	}
	if held > samples/4 {
		t.Fatalf("a slot was taken in %d of %d samples of a paced kernel", held, samples)
	}

	release := holdAllSlots(t)
	time.Sleep(5 * time.Millisecond)
	before := processed.Value()
	time.Sleep(50 * time.Millisecond)
	after := processed.Value()
	release()
	if after != before {
		t.Fatalf("the kernel processed %d bytes with every slot taken", after-before)
	}
	resp := <-done
	if resp == nil || resp.Disposition != wire.ActiveDone || kernels.Sum8Result(resp.Result) != sumOf(size) {
		t.Fatalf("paced request: %+v", resp)
	}
}

// TestKernelSlotsInterruptAtChunkBoundary: a kernel interrupted while it
// waits for a slot still stops at a chunk boundary, and its checkpoint
// resumes to the whole range's result.
func TestKernelSlotsInterruptAtChunkBoundary(t *testing.T) {
	const size, chunk = 512 << 10, 16 << 10
	rt, reg := newTestRuntime(t, RuntimeConfig{
		Mode:      ModeAlwaysAccept,
		Estimator: EstimatorConfig{BW: 118e6, RateFor: func(string) float64 { return 1e6 }},
		ChunkSize: chunk,
		Pace:      true,
	}, size)
	done := make(chan *wire.ActiveReadResp, 1)
	go func() {
		resp, err := rt.HandleActive(&wire.ActiveReadReq{RequestID: 1, Handle: 1, Length: size, Op: "sum8"})
		if err != nil {
			t.Error(err)
		}
		done <- resp
	}()
	for reg.Counter("active.bytes_processed").Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	release := holdAllSlots(t)
	if cr, err := rt.HandleCancel(&wire.CancelReq{RequestID: 1}); err != nil || !cr.Found {
		t.Fatalf("cancel: %+v, %v", cr, err)
	}
	time.Sleep(20 * time.Millisecond) // the kernel reaches the slots and waits
	release()
	first := <-done
	if first == nil || first.Disposition != wire.ActiveInterrupted {
		t.Fatalf("interrupted request: %+v", first)
	}
	if first.Processed == 0 || first.Processed >= size || first.Processed%chunk != 0 {
		t.Fatalf("interrupted after %d bytes, want a multiple of %d inside (0, %d)", first.Processed, chunk, size)
	}
	rest, err := rt.HandleActive(&wire.ActiveReadReq{
		RequestID: 2, Handle: 1, Offset: first.Processed, Length: size - first.Processed, Op: "sum8", ResumeState: first.State,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := kernels.Sum8Result(rest.Result); got != sumOf(size) {
		t.Fatalf("resumed sum8 = %d, want %d", got, sumOf(size))
	}
}
