package pfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dosas/internal/transport"
	"dosas/internal/wire"
)

// testCluster is an in-process PFS: one metadata server and n data servers.
type testCluster struct {
	client  *Client
	meta    *MetaServer
	datas   []*DataServer
	servers []*Server // data servers' RPC servers, for failure injection
}

// clusterOpts varies what startClusterWith boots; the zero value of each
// field is startCluster's choice.
type clusterOpts struct {
	nData  int
	tcp    bool                                      // TCP loopback instead of the in-process transport
	net    func(transport.Network) transport.Network // wraps the transport (fault injection)
	store  func(i int) Store                         // data server i's store; default MemStore
	meta   func(Handler) Handler                     // wraps the metadata server on the wire
	wal    string                                    // the metadata journal's path; default none
	client func(cc *ClientConfig)                    // last word on the client's configuration
}

func startCluster(t *testing.T, nData int) *testCluster {
	return startClusterWith(t, clusterOpts{nData: nData})
}

func startClusterWith(t testing.TB, o clusterOpts) *testCluster {
	t.Helper()
	var net transport.Network = transport.NewInproc()
	listenAddr := func(name string) string { return name }
	if o.tcp {
		net = transport.TCP{}
		listenAddr = func(string) string { return "127.0.0.1:0" }
	}
	if o.net != nil {
		net = o.net(net)
	}
	meta, err := NewMetaServer(MetaConfig{NumDataServers: o.nData, JournalPath: o.wal})
	if err != nil {
		t.Fatal(err)
	}
	if o.wal != "" {
		t.Cleanup(func() { meta.Close() })
	}
	ml, err := net.Listen(listenAddr("meta"))
	if err != nil {
		t.Fatal(err)
	}
	var mh Handler = meta
	if o.meta != nil {
		mh = o.meta(meta)
	}
	ms := NewServer(ml, mh)
	ms.Start()
	t.Cleanup(ms.Close)

	var dataAddrs []string
	var datas []*DataServer
	var servers []*Server
	for i := 0; i < o.nData; i++ {
		var st Store = NewMemStore()
		if o.store != nil {
			st = o.store(i)
		}
		ds, err := NewDataServer(DataConfig{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		dl, err := net.Listen(listenAddr(fmt.Sprintf("data-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(dl, ds)
		srv.SetFrameStats(ds.WireStats())
		srv.Start()
		t.Cleanup(srv.Close)
		dataAddrs = append(dataAddrs, dl.Addr())
		datas = append(datas, ds)
		servers = append(servers, srv)
	}

	cc := ClientConfig{Net: net, MetaAddr: ml.Addr(), DataAddrs: dataAddrs}
	if o.client != nil {
		o.client(&cc)
	}
	c, err := NewClient(cc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return &testCluster{client: c, meta: meta, datas: datas, servers: servers}
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	tc := startCluster(t, 4)
	f, err := tc.client.Create("exp/data.bin", 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 100_000)
	rng := rand.New(rand.NewSource(1))
	rng.Read(data)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if f.Size() != uint64(len(data)) {
		t.Fatalf("size = %d, want %d", f.Size(), len(data))
	}

	// Fresh open must see the same bytes.
	g, err := tc.client.Open("exp/data.bin")
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("striped round trip corrupted data")
	}

	// Unaligned interior read.
	buf := make([]byte, 12345)
	n, err := g.ReadAt(buf, 7777)
	if err != nil || n != len(buf) {
		t.Fatalf("interior read = %d, %v", n, err)
	}
	if !bytes.Equal(buf, data[7777:7777+12345]) {
		t.Fatal("interior read corrupted")
	}

	// Short read at EOF.
	n, err = g.ReadAt(buf, uint64(len(data))-100)
	if err != nil || n != 100 {
		t.Fatalf("eof read = %d, %v; want 100", n, err)
	}
}

func TestDataSpreadsAcrossServers(t *testing.T) {
	tc := startCluster(t, 4)
	f, err := tc.client.Create("spread", 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64*4096)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	for i, ds := range tc.datas {
		if got := ds.Store().Size(f.Handle()); got != 16*4096 {
			t.Errorf("server %d holds %d bytes, want %d", i, got, 16*4096)
		}
	}
}

func TestStatRemoveList(t *testing.T) {
	tc := startCluster(t, 2)
	for _, name := range []string{"a/1", "a/2", "b/1"} {
		f, err := tc.client.Create(name, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte(name), 0); err != nil {
			t.Fatal(err)
		}
	}
	names, err := tc.client.List("a/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a/1" || names[1] != "a/2" {
		t.Fatalf("List = %v", names)
	}
	st, err := tc.client.Stat("b/1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != 3 {
		t.Errorf("stat size = %d", st.Size)
	}
	if err := tc.client.Remove("b/1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.client.Open("b/1"); !IsNotFound(err) {
		t.Errorf("open after remove: %v", err)
	}
	// The removed file's stripes must be gone from every data server.
	for i, ds := range tc.datas {
		if got := ds.Store().Size(st.Handle); got != 0 {
			t.Errorf("server %d still holds %d bytes after remove", i, got)
		}
	}
}

// TestRemoveIsOneMetadataRPC: the remove response names the stripes'
// servers and the file's size, so the client asks the metadata server
// nothing else, and no stripe is left behind.
func TestRemoveIsOneMetadataRPC(t *testing.T) {
	var metaCalls atomic.Int64
	tc := startClusterWith(t, clusterOpts{nData: 3, meta: func(h Handler) Handler {
		return HandlerFunc(func(m wire.Message) (wire.Message, error) {
			metaCalls.Add(1)
			return h.Handle(m)
		})
	}})
	f, err := tc.client.CreateReplicated("doomed", 1024, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte("x"), 8192), 0); err != nil {
		t.Fatal(err)
	}
	before := metaCalls.Load()
	if err := tc.client.Remove("doomed"); err != nil {
		t.Fatal(err)
	}
	if n := metaCalls.Load() - before; n != 1 {
		t.Errorf("Remove made %d metadata calls, want 1", n)
	}
	for i, ds := range tc.datas {
		for r := 0; r < 2; r++ {
			if got := ds.Store().Size(ReplicaHandle(f.Handle(), r)); got != 0 {
				t.Errorf("server %d still holds %d bytes of replica %d", i, got, r)
			}
		}
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	tc := startCluster(t, 2)
	if _, err := tc.client.Create("dup", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.client.Create("dup", 0, 0); !IsExists(err) {
		t.Fatalf("duplicate create err = %v", err)
	}
}

func TestOpenMissingFails(t *testing.T) {
	tc := startCluster(t, 2)
	if _, err := tc.client.Open("ghost"); !IsNotFound(err) {
		t.Fatalf("err = %v, want not-found", err)
	}
}

func TestConcurrentClientsWrite(t *testing.T) {
	tc := startCluster(t, 4)
	const writers = 8
	const chunk = 32 << 10
	f, err := tc.client.Create("concurrent", 8192, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte(w + 1)}, chunk)
			if _, err := f.WriteAt(data, uint64(w*chunk)); err != nil {
				t.Errorf("writer %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	got, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != writers*chunk {
		t.Fatalf("len = %d", len(got))
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < chunk; i += 997 {
			if got[w*chunk+i] != byte(w+1) {
				t.Fatalf("byte at writer %d offset %d = %d", w, i, got[w*chunk+i])
			}
		}
	}
}

func TestActiveReadWithoutRuntimeIsUnsupported(t *testing.T) {
	tc := startCluster(t, 1)
	f, err := tc.client.Create("noactive", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("data"), 0); err != nil {
		t.Fatal(err)
	}
	addr, _ := tc.client.DataAddr(f.Layout().Servers[0])
	_, err = tc.client.Pool().Call(addr, &wire.ActiveReadReq{
		Handle: f.Handle(), Length: 4, Op: "sum8",
	})
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != wire.StatusUnsupported {
		t.Fatalf("err = %v, want unsupported", err)
	}
}

func TestPoolReusesConnections(t *testing.T) {
	tc := startCluster(t, 1)
	for i := 0; i < 50; i++ {
		if _, err := tc.client.Pool().Call("meta", &wire.Ping{Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPoolSurvivesServerRestart(t *testing.T) {
	net := transport.NewInproc()
	meta, err := NewMetaServer(MetaConfig{NumDataServers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ml, _ := net.Listen("meta-restart")
	srv := NewServer(ml, meta)
	srv.Start()

	pool := NewPool(net)
	defer pool.Close()
	if _, err := pool.Call("meta-restart", &wire.Ping{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	// Restart the server: the pool now holds a stale idle connection.
	srv.Close()
	ml2, err := net.Listen("meta-restart")
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(ml2, meta)
	srv2.Start()
	defer srv2.Close()

	// The next call must transparently retry on a fresh dial.
	if _, err := pool.Call("meta-restart", &wire.Ping{Seq: 2}); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
}

func TestPoolFreshDialFailureSurfaces(t *testing.T) {
	pool := NewPool(transport.NewInproc())
	defer pool.Close()
	if _, err := pool.Call("nobody-home", &wire.Ping{Seq: 1}); err == nil {
		t.Fatal("call to unbound address succeeded")
	}
}

func TestConcurrentCreatesGetUniqueHandles(t *testing.T) {
	tc := startCluster(t, 2)
	const n = 32
	handles := make(chan uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := tc.client.Create(fmt.Sprintf("uniq/%d", i), 0, 0)
			if err != nil {
				t.Error(err)
				return
			}
			handles <- f.Handle()
		}(i)
	}
	wg.Wait()
	close(handles)
	seen := make(map[uint64]bool)
	for h := range handles {
		if seen[h] {
			t.Fatalf("handle %d issued twice", h)
		}
		seen[h] = true
	}
	if len(seen) != n {
		t.Fatalf("created %d files, got %d handles", n, len(seen))
	}
	// Layout rotation must spread files over both servers.
	files := tc.meta.Files()
	starts := map[uint32]int{}
	for _, f := range files {
		starts[f.Layout.Servers[0]]++
	}
	if len(starts) < 2 {
		t.Errorf("all %d files start on one server: %v", len(files), starts)
	}
}
