package pfs

import (
	"runtime"
	"testing"

	"dosas/internal/wire"
)

// The fd cache's hits and misses, the mapped extent files and the gate's
// throttled count reach the data server's registry when a snapshot is
// taken: reads over more handles than the cache holds miss, a re-read of a
// cached handle hits, and a kernel's view maps its extent file.
func TestSyncWireStatsStoreCounters(t *testing.T) {
	es, err := NewExtentStore(ExtentConfig{Dir: t.TempDir(), FDCacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	ds, err := NewDataServer(DataConfig{Store: es, QoS: &QoSConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	const size = 4096
	for h := uint64(1); h <= 3; h++ {
		if _, err := es.WriteAt(h, seeded(size, int64(h)), 0); err != nil {
			t.Fatal(err)
		}
	}
	reg := ds.Metrics()
	counts := func() (hits, misses int64) {
		ds.SyncWireStats()
		return reg.Counter("store.fd_hits").Value(), reg.Counter("store.fd_misses").Value()
	}
	read := func(h uint64) {
		t.Helper()
		req := &wire.ReadReq{Handle: h, Length: size}
		resp, err := ds.Handle(req)
		if err != nil {
			t.Fatal(err)
		}
		ds.PostWrite(req, resp)
		if rr, ok := resp.(*wire.ReadResp); !ok || len(rr.Data) != size {
			t.Fatalf("read of handle %d: %+v", h, resp)
		}
	}

	// The writes leave handles 2 and 3 cached. Reading 1 evicts 2, reading 2
	// evicts 3, and reading 3 evicts 1: three misses.
	hits0, misses0 := counts()
	for h := uint64(1); h <= 3; h++ {
		read(h)
	}
	if hits, misses := counts(); hits != hits0 || misses != misses0+3 {
		t.Fatalf("reads of 3 handles through a 2-descriptor cache: %d hits, %d misses; want 0 and 3",
			hits-hits0, misses-misses0)
	}
	read(3)
	if hits, misses := counts(); hits != hits0+1 || misses != misses0+3 {
		t.Fatalf("re-read of a cached handle: %d hits, %d misses in all; want 1 and 3", hits-hits0, misses-misses0)
	}

	v, err := ReadView(es, 3, make([]byte, size), 0)
	if err != nil {
		t.Fatal(err)
	}
	v.Release()
	ds.SyncWireStats()
	want := int64(1)
	if runtime.GOOS != "linux" {
		want = 0 // views are copies
	}
	if got := reg.Gauge("store.mapped_extents").Value(); got != want {
		t.Fatalf("store.mapped_extents = %d after a view, want %d", got, want)
	}
	if got, ok := reg.Snapshot().Counters["gate.throttled"]; !ok || got != 0 {
		t.Fatalf("gate.throttled = %d (in the snapshot: %v) with one tenant, want 0", got, ok)
	}
}
