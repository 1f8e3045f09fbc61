package pfs

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dosas/internal/wire"
)

// truncs is how many TruncReqs the cluster's data servers have served.
func (tc *testCluster) truncs() int64 {
	var n int64
	for _, ds := range tc.datas {
		n += ds.Metrics().Counter("data.trunc").Value()
	}
	return n
}

// TestRemoveNeverWrittenIsOneRPC: a file that never held a byte is
// removed with the metadata round trip alone; no data server is asked.
func TestRemoveNeverWrittenIsOneRPC(t *testing.T) {
	var metaCalls atomic.Int64
	tc := startClusterWith(t, clusterOpts{nData: 3, meta: func(h Handler) Handler {
		return HandlerFunc(func(m wire.Message) (wire.Message, error) {
			metaCalls.Add(1)
			return h.Handle(m)
		})
	}})
	if _, err := tc.client.CreateReplicated("empty", 0, 3, 2); err != nil {
		t.Fatal(err)
	}
	before := metaCalls.Load()
	if err := tc.client.Remove("empty"); err != nil {
		t.Fatal(err)
	}
	if n := metaCalls.Load() - before; n != 1 {
		t.Errorf("Remove made %d metadata calls, want 1", n)
	}
	if n := tc.truncs(); n != 0 {
		t.Errorf("Remove sent %d TruncReqs for a never-written file, want 0", n)
	}
}

// TestRemoveSweepsOnlyServersItsSizeReaches: a 4 KiB file on a width-3
// layout of 64 KiB stripes lives on one server, and Remove asks only it.
func TestRemoveSweepsOnlyServersItsSizeReaches(t *testing.T) {
	tc := startCluster(t, 3)
	f, err := tc.client.Create("small", 64<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte("s"), 4096), 0); err != nil {
		t.Fatal(err)
	}
	if err := tc.client.Remove("small"); err != nil {
		t.Fatal(err)
	}
	if n := tc.truncs(); n != 1 {
		t.Errorf("Remove sent %d TruncReqs for a one-stripe file, want 1", n)
	}
	for i, ds := range tc.datas {
		if got := ds.Store().Size(f.Handle()); got != 0 {
			t.Errorf("server %d still holds %d bytes", i, got)
		}
	}
}

// sweptStore is a MemStore that records every stream it is asked to
// remove.
type sweptStore struct {
	*MemStore
	mu      sync.Mutex
	removed []uint64
}

func (s *sweptStore) Remove(handle uint64) error {
	s.mu.Lock()
	s.removed = append(s.removed, handle)
	s.mu.Unlock()
	return s.MemStore.Remove(handle)
}

// TestReplicatedRemoveSweepsStripesBelowSize: a 2-replica, width-3 file
// written only in its fifth stripe is swept on exactly the (server,
// replica) pairs whose slots own a stripe below its size, once each; that
// covers every pair holding its bytes, and none holds any afterwards.
func TestReplicatedRemoveSweepsStripesBelowSize(t *testing.T) {
	const ss, width, replicas = 1024, 3, 2
	stores := make([]*sweptStore, width)
	tc := startClusterWith(t, clusterOpts{nData: width, store: func(i int) Store {
		stores[i] = &sweptStore{MemStore: NewMemStore()}
		return stores[i]
	}})
	f, err := tc.client.CreateReplicated("holey", ss, width, replicas)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte("h"), 100), 4*ss); err != nil {
		t.Fatal(err)
	}
	type pair struct {
		server int
		handle uint64
	}
	var held []pair
	for i, st := range stores {
		for r := 0; r < replicas; r++ {
			if st.Size(ReplicaHandle(f.Handle(), r)) > 0 {
				held = append(held, pair{i, ReplicaHandle(f.Handle(), r)})
			}
		}
	}
	if len(held) != replicas {
		t.Fatalf("%d (server, replica) pairs hold bytes after one write in one stripe, want %d", len(held), replicas)
	}
	// The pairs below the size, from the stripe indices: slot g mod width
	// owns stripe g, and replica r of a slot lives r servers further on.
	lay := f.Layout()
	want := make(map[pair]bool)
	for g := uint64(0); g*ss < f.Size(); g++ {
		slot := int(g % width)
		for r := 0; r < replicas; r++ {
			want[pair{int(lay.Servers[(slot+r)%width]), ReplicaHandle(f.Handle(), r)}] = true
		}
	}

	if err := tc.client.Remove("holey"); err != nil {
		t.Fatal(err)
	}
	got := make(map[pair]int)
	for i, st := range stores {
		for _, h := range st.removed {
			got[pair{i, h}]++
		}
	}
	for p, n := range got {
		if !want[p] || n != 1 {
			t.Errorf("server %d removed stream %#x %d times; want once for each pair below the size, %v", p.server, p.handle, n, want)
		}
	}
	if len(got) != len(want) {
		t.Errorf("swept %d pairs, want the %d below the size", len(got), len(want))
	}
	for _, p := range held {
		if got[p] == 0 {
			t.Errorf("server %d holding stream %#x was not swept", p.server, p.handle)
		}
	}
	for i, st := range stores {
		for r := 0; r < replicas; r++ {
			if n := st.Size(ReplicaHandle(f.Handle(), r)); n != 0 {
				t.Errorf("server %d still holds %d bytes of replica %d", i, n, r)
			}
		}
	}
}

// BenchmarkCreateRemove times the create+remove pair of a file that is
// never written, over TCP with an on-disk metadata journal and extent
// stores, and reports the mean µs of each half.
func BenchmarkCreateRemove(b *testing.B) {
	tc := startClusterWith(b, clusterOpts{
		nData: 3, tcp: true, wal: filepath.Join(b.TempDir(), "meta.wal"),
		store: func(int) Store {
			es, err := NewExtentStore(ExtentConfig{Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { es.Close() })
			return es
		},
	})
	var create, remove time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("tmp/%d", i)
		start := time.Now()
		if _, err := tc.client.Create(name, 0, 0); err != nil {
			b.Fatal(err)
		}
		mid := time.Now()
		if err := tc.client.Remove(name); err != nil {
			b.Fatal(err)
		}
		create += mid.Sub(start)
		remove += time.Since(mid)
	}
	b.ReportMetric(float64(create.Microseconds())/float64(b.N), "create_us")
	b.ReportMetric(float64(remove.Microseconds())/float64(b.N), "remove_us")
}
