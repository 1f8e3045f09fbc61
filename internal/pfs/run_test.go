package pfs

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

// extentStores hands out one on-disk extent store per data server.
func extentStores(t *testing.T) func(int) Store {
	return func(int) Store {
		st, err := NewExtentStore(ExtentConfig{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
}

// Bytes inside the file size that no server holds are a hole. Width 2,
// 4 KiB stripes, only global stripe 3 written: server 1's stream starts
// with a hole and server 0's stream does not exist at all, so its run
// meets the end of the local stream at once.
func TestReadRunHolePastLocalEnd(t *testing.T) {
	for name, store := range map[string]func(int) Store{"mem": nil, "extent": extentStores(t)} {
		t.Run(name, func(t *testing.T) {
			tc := startClusterWith(t, clusterOpts{nData: 2, store: store})
			f, err := tc.client.Create("hole/x", 4096, 2)
			if err != nil {
				t.Fatal(err)
			}
			stripe3 := bytes.Repeat([]byte{0xC3}, 4096)
			if _, err := f.WriteAt(stripe3, 3*4096); err != nil {
				t.Fatal(err)
			}
			buf := bytes.Repeat([]byte{0xFF}, 16<<10) // stale caller bytes must not survive
			n, err := f.ReadAt(buf, 0)
			if err != nil || n != len(buf) {
				t.Fatalf("ReadAt over holes = %d, %v", n, err)
			}
			if !bytes.Equal(buf[:3*4096], make([]byte, 3*4096)) {
				t.Fatal("hole did not read as zeros")
			}
			if !bytes.Equal(buf[3*4096:], stripe3) {
				t.Fatal("written stripe corrupted")
			}
			// A hole in the middle of a run: the data after it still lands
			// at its own stripe.
			if _, err := f.WriteAt(stripe3, 9*4096); err != nil {
				t.Fatal(err)
			}
			got, err := f.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, 10*4096)
			copy(want[3*4096:], stripe3)
			copy(want[9*4096:], stripe3)
			if !bytes.Equal(got, want) {
				t.Fatal("sparse file read back wrong")
			}
		})
	}
}

// Unaligned reads, writes and overwrites over TCP, checked byte for byte
// against a flat in-memory file. The chunk sizes cut the windows' requests
// in the middle of stripes; the extent variant serves chunks by reference.
// Write chunks of 10 000 bytes are encoded inline, those of 100 000 leave
// by reference in one segment, and the default chunk's in several.
func TestRandomOpsMatchFlatModel(t *testing.T) {
	for _, tc := range []struct {
		name     string
		replicas int
		store    func(int) Store
		chunk    int
		maxOp    int
		ops      int
	}{
		{"unreplicated-mem", 1, nil, 10_000, 150_000, 120},
		{"replicated-extent", 2, extentStores(t), 100_000, 600_000, 120},
		{"default-chunk-mem", 1, nil, 0, 2_000_000, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := startClusterWith(t, clusterOpts{nData: 3, tcp: true, store: tc.store,
				client: func(cc *ClientConfig) { cc.TransferChunk = tc.chunk }})
			f, err := c.client.CreateReplicated("model/x", 4096, 3, tc.replicas)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(tc.chunk)))
			var model []byte
			for op := 0; op < tc.ops; op++ {
				off := rng.Intn(len(model) + 20_000)
				n := 1 + rng.Intn(tc.maxOp)
				if rng.Intn(3) > 0 { // write or overwrite, possibly leaving a hole
					data := make([]byte, n)
					rng.Read(data)
					if _, err := f.WriteAt(data, uint64(off)); err != nil {
						t.Fatalf("op %d: WriteAt(%d, %d): %v", op, off, n, err)
					}
					if end := off + n; end > len(model) {
						model = append(model, make([]byte, end-len(model))...)
					}
					copy(model[off:], data)
					continue
				}
				buf := make([]byte, n)
				got, err := f.ReadAt(buf, uint64(off))
				if err != nil {
					t.Fatalf("op %d: ReadAt(%d, %d): %v", op, off, n, err)
				}
				want := model[min(off, len(model)):min(off+n, len(model))]
				if got != len(want) || !bytes.Equal(buf[:got], want) {
					t.Fatalf("op %d: ReadAt(%d, %d) = %d bytes, diverges from the model (%d bytes)", op, off, n, got, len(want))
				}
			}
			if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, model) {
				t.Fatalf("final ReadAll diverges from the model (%v)", err)
			}
		})
	}
}

// One ReadAt or WriteAt that fits TransferChunk per server is exactly one
// data RPC per server of the layout, however many stripes it spans.
func TestOneDataRPCPerServer(t *testing.T) {
	tc := startClusterWith(t, clusterOpts{nData: 2, tcp: true})
	f, err := tc.client.Create("count/x", 64<<10, 2)
	if err != nil {
		t.Fatal(err)
	}
	count := func(name string) (n int64) {
		for _, ds := range tc.datas {
			n += ds.Metrics().Counter(name).Value()
		}
		return n
	}
	data := make([]byte, 4<<20)
	rand.New(rand.NewSource(21)).Read(data)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if got := count("data.write"); got != 2 {
		t.Errorf("4 MiB WriteAt on a width-2 file made %d write RPCs, want 2", got)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if n := count("data.read"); n != 2 {
		t.Errorf("4 MiB ReadAt on a width-2 file made %d read RPCs, want 2", n)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("bulk round trip corrupted data")
	}
}

// A hedge on a multi-stripe run: the winner's bytes arrive in one
// local-contiguous scratch buffer and must be scattered to the run's
// stripes of the caller's buffer, beside the other server's run, which
// reads unhedged into the stripes between them. The primary holds other
// bytes than the hedge replica and lands two of its 16 KiB chunks in the
// caller's buffer before it straggles: once it loses, no byte of its own —
// real or zero-filled after the cancel — is left there.
func TestHedgeWinnerScattersIntoRun(t *testing.T) {
	hc := &hedgeCluster{stores: []*slowStore{{Store: NewMemStore()}, {Store: NewMemStore()}}}
	hc.testCluster = startClusterWith(t, clusterOpts{
		nData: len(hc.stores),
		store: func(i int) Store { return hc.stores[i] },
		client: func(cc *ClientConfig) {
			cc.HedgeAfter, cc.TransferChunk = 15*time.Millisecond, 16<<10
		},
	})
	f, err := hc.client.CreateReplicated("hedge/run", 8<<10, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256<<10+1234)
	rand.New(rand.NewSource(16)).Read(data)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// Unmeasured replicas keep layout order: slot 0's primary straggles,
	// after serving two chunks of bytes that differ from the real ones.
	l := f.Layout()
	prim := hc.stores[ReplicaServer(l, 0, 0)]
	local := make([]byte, LocalSize(l, uint64(len(data)), 0))
	if _, err := prim.ReadAt(ReplicaHandle(f.Handle(), 0), local, 0); err != nil {
		t.Fatal(err)
	}
	for i := range local {
		local[i] = ^local[i]
	}
	if _, err := prim.WriteAt(ReplicaHandle(f.Handle(), 0), local, 0); err != nil {
		t.Fatal(err)
	}
	prim.fast.Store(2)
	prim.delay.Store(int64(250 * time.Millisecond))

	got := bytes.Repeat([]byte{0xFF}, len(data)-777)
	if _, err := f.ReadAt(got, 777); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[777:]) {
		t.Fatalf("hedged run read left bytes that are not the file's (first at %d)", firstDiff(got, data[777:]))
	}
	reg := hc.client.Pool().Metrics()
	if v := reg.Counter("pool.hedge.wins").Value(); v < 1 {
		t.Errorf("pool.hedge.wins = %d, want >= 1", v)
	}
	// Each run landed once, slot 0's in the hedge's scratch: anything more
	// is what the primary landed in the caller's buffer before it lost.
	if v := reg.Counter("pool.wire.landed_bytes").Value(); v <= int64(len(got)) {
		t.Errorf("pool.wire.landed_bytes = %d for a %d-byte read: the primary landed nothing before losing", v, len(got))
	}
}

// A replica whose local stream ends inside the run may be a hole or may
// be behind: while another replica holds the bytes the read must come
// from that one, failing over or hedging as for any failed replica. Only
// bytes no replica holds read as zeros, and not when a replica that
// might hold them cannot be asked. Slot 0 of a width-2, 2-replica file
// has replica r on server (0+r)%2; cut[r] bytes are cut off its end.
func TestShortReplicaIsNotAHole(t *testing.T) {
	const never = time.Hour // hedging on, delay never reached
	for name, c := range map[string]struct {
		hedge    time.Duration
		slow     int    // replica of slot 0 whose server straggles; -1: none
		cut      [2]int // bytes missing from the end of replica r's stream
		kill     int    // replica of slot 0 whose server is down; -1: none
		wantZero int    // bytes at the end of slot 0's stream that read as zeros
		wantErr  bool
	}{
		"failover to the whole replica":       {0, -1, [2]int{100, 0}, -1, 0, false},
		"short before the hedge delay":        {never, -1, [2]int{100, 0}, -1, 0, false},
		"short hedge loses to slow primary":   {10 * time.Millisecond, 0, [2]int{0, 100}, -1, 0, false},
		"hedge wins over short slow primary":  {10 * time.Millisecond, 0, [2]int{100, 0}, -1, 0, false},
		"all short: hole past the longest":    {0, -1, [2]int{100, 40}, -1, 40, false},
		"all short, longest first":            {0, -1, [2]int{40, 100}, -1, 40, false},
		"all short, hedged, hedge longer":     {10 * time.Millisecond, 0, [2]int{100, 40}, -1, 40, false},
		"all short, hedged, primary longer":   {10 * time.Millisecond, 0, [2]int{40, 100}, -1, 40, false},
		"short replica, other one down":       {0, -1, [2]int{100, 0}, 1, 0, true},
		"whole replica down, other one short": {never, -1, [2]int{0, 100}, 0, 0, true},
	} {
		t.Run(name, func(t *testing.T) {
			hc := startHedgeCluster(t, c.hedge)
			f, err := hc.client.CreateReplicated("short/f", 8<<10, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, 96<<10+321)
			rand.New(rand.NewSource(15)).Read(data)
			if _, err := f.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			l := f.Layout()
			local := LocalSize(l, uint64(len(data)), 0)
			for r, cut := range c.cut {
				st := hc.stores[ReplicaServer(l, 0, r)]
				if err := st.Truncate(ReplicaHandle(f.Handle(), r), local-uint64(cut)); err != nil {
					t.Fatal(err)
				}
			}
			if c.slow >= 0 {
				hc.stores[ReplicaServer(l, 0, c.slow)].delay.Store(int64(150 * time.Millisecond))
			}
			if c.kill >= 0 {
				hc.servers[ReplicaServer(l, 0, c.kill)].Close()
			}
			got := bytes.Repeat([]byte{0xFF}, len(data))
			_, err = f.ReadAt(got, 0)
			if c.wantErr {
				if err == nil {
					t.Fatal("read succeeded though the only replica that may hold the tail is down")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if v := hc.client.Pool().Metrics().Counter("pool.hedge.launched").Value(); (v > 0) != (c.slow >= 0) {
				t.Errorf("pool.hedge.launched = %d with slow replica %d", v, c.slow)
			}
			want := bytes.Clone(data)
			for k := local - uint64(c.wantZero); k < local; k++ {
				want[FileOffsetOf(l, 0, k)] = 0
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("read differs from the replicas' union (first at %d)", firstDiff(got, want))
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
