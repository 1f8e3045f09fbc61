package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dosas/internal/audit"
	"dosas/internal/core"
	"dosas/internal/ioqueue"
	"dosas/internal/kernels"
	"dosas/internal/metrics"
	"dosas/internal/pfs"
	"dosas/internal/telemetry"
	"dosas/internal/tenant"
	"dosas/internal/trace"
	"dosas/internal/transport"
	"dosas/internal/tsdb"
	"dosas/internal/wire"
)

// Layer probes: direct timed calls into each layer's public functions
// with the message shapes the workloads produce. They size the parts of a
// traced-pass row that cannot be separated from outside (pfs.rpc_self_us
// is client window + wire codec + transport) and give each later issue
// the one number its layer should move.

// probe is one layer probe. run prepares its fixture under dir and hands
// the operation to time to tm.
type probe struct {
	name string
	unit string
	run  func(dir string, tm timer) (Summary, error)
}

// timer runs a probe's operation back to back for its duration.
type timer struct{ d time.Duration }

// perCall calls op (batch calls between clock reads, for operations of a
// few nanoseconds) until the duration is over and reports, per slice, the
// mean time per call in unit ("ns" or "us"). It stops at op's first error.
func (tm timer) perCall(unit string, batch int, op func() error) (Summary, error) {
	div := map[string]float64{"ns": 1, "us": 1e3}[unit]
	return tm.loop(unit, batch, op, func(calls int, spent time.Duration) float64 {
		return float64(spent) / float64(calls) / div
	})
}

// mbps is perCall for operations that move bytesPerCall bytes: per slice,
// MB (1e6) per second.
func (tm timer) mbps(bytesPerCall int, op func() error) (Summary, error) {
	return tm.loop("MB/s", 1, op, func(calls int, spent time.Duration) float64 {
		return float64(calls) * float64(bytesPerCall) / 1e6 / spent.Seconds()
	})
}

func (tm timer) loop(unit string, batch int, op func() error, value func(calls int, spent time.Duration) float64) (Summary, error) {
	vals := make([]float64, numSlices)
	least := 0
	for i := range vals {
		calls, start := 0, time.Now()
		for time.Since(start) < tm.d/numSlices {
			for b := 0; b < batch; b++ {
				if err := op(); err != nil {
					return Summary{}, err
				}
			}
			calls += batch
		}
		vals[i] = value(calls, time.Since(start))
		if i == 0 || calls < least {
			least = calls
		}
	}
	return summarize(unit, vals, least), nil
}

// runProbes runs the given probes for d each, with fixtures under a
// fresh directory below scratch.
func runProbes(ps []probe, scratch string, d time.Duration) (map[string]Summary, error) {
	out := make(map[string]Summary, len(ps))
	for _, p := range ps {
		dir, err := os.MkdirTemp(scratch, "probe-")
		if err != nil {
			return nil, err
		}
		s, err := p.run(dir, timer{d})
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		out[p.name] = s
	}
	return out, nil
}

// ---- wire ----

// codecSmall round-trips the two messages small_ops sends most — a
// ReadReq and a StatResp — through WriteMessage and ReadMessage.
func codecSmall(_ string, tm timer) (Summary, error) {
	var buf bytes.Buffer
	req := &wire.ReadReq{Handle: 7, Offset: 4096, Length: 4096}
	resp := &wire.StatResp{Handle: 7, Size: smallFile, Layout: wire.Layout{StripeSize: 64 << 10, Servers: []uint32{0, 1}}}
	return tm.perCall("ns", 16, func() error {
		buf.Reset()
		if err := wire.WriteMessage(&buf, req); err != nil {
			return err
		}
		if err := wire.WriteMessage(&buf, resp); err != nil {
			return err
		}
		if _, err := wire.ReadMessage(&buf); err != nil {
			return err
		}
		_, err := wire.ReadMessage(&buf)
		return err
	})
}

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair() (a, b *net.TCPConn, err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer l.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		ch <- accepted{c, err}
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	acc := <-ch
	if acc.err != nil {
		c.Close()
		return nil, nil, acc.err
	}
	return acc.c.(*net.TCPConn), c.(*net.TCPConn), nil
}

// Body sources and framings of the frame probes.
const (
	bodyFile   = "sendfile" // by-reference file payload: sendfile(2)
	bodyMemory = "writev"   // memory body: header and body in one vectored write
	bodyPlain  = "copy"     // file payload staged through the encode buffer
)

// frameStream returns a probe that streams 4 MiB ReadResp frames over a
// loopback TCP connection — the response direction of bulk_read — and
// measures the receiver's decode rate. body picks how the sender moves
// the payload; mux picks the segmenting mux framing over the ordered one.
func frameStream(body string, mux bool) func(string, timer) (Summary, error) {
	return func(dir string, tm timer) (Summary, error) {
		f, err := os.Create(filepath.Join(dir, "payload"))
		if err != nil {
			return Summary{}, err
		}
		defer f.Close()
		mem := make([]byte, bulkOp)
		fill(mem, 1, 0)
		if _, err := f.Write(mem); err != nil {
			return Summary{}, err
		}
		srv, cli, err := tcpPair()
		if err != nil {
			return Summary{}, err
		}
		defer cli.Close()
		fr := wire.NewFrameReader(cli)
		defer fr.Close()
		message := func() *wire.ReadResp {
			if body == bodyMemory {
				return &wire.ReadResp{Data: mem}
			}
			return &wire.ReadResp{Payload: wire.NewFilePayload([]wire.FileSection{{F: f, N: bulkOp}}, nil)}
		}

		// The sender answers one request byte with one frame, so exactly
		// one frame is in flight, as for one client of bulk_read.
		var sent sync.WaitGroup
		sent.Add(1)
		go func() {
			defer sent.Done()
			defer srv.Close()
			var mw *wire.MuxWriter
			if mux {
				mw = wire.NewMuxWriter(srv, wire.DefaultMuxSegment)
				mw.Plain = body == bodyPlain
				defer mw.Close()
			}
			var ask [1]byte
			for stream := uint32(1); ; stream++ {
				if _, err := io.ReadFull(srv, ask[:]); err != nil {
					return
				}
				if mux {
					done := make(chan error, 1)
					mw.Enqueue(message(), stream, func(err error) { done <- err }) //nolint:errcheck // done carries it
					if <-done != nil {
						return
					}
				} else if wire.WriteMessageOpts(srv, message(), wire.WriteOptions{Plain: body == bodyPlain}) != nil {
					return
				}
			}
		}()

		recv := func() error {
			_, err := fr.Read()
			return err
		}
		if mux {
			mr := wire.NewMuxReader(cli)
			defer mr.Close()
			recv = func() error {
				fm, err := mr.Read()
				wire.PutBuf(fm.Buf)
				return err
			}
		}
		s, err := tm.mbps(bulkOp, func() error {
			if _, err := cli.Write([]byte{1}); err != nil {
				return err
			}
			return recv()
		})
		cli.Close()
		sent.Wait()
		return s, err
	}
}

// ---- transport ----

// echo serves conn: it answers every size-byte request with a reply-byte
// response until the peer hangs up.
func echo(conn net.Conn, size, reply int) {
	defer conn.Close()
	in, out := make([]byte, size), make([]byte, reply)
	for {
		if _, err := io.ReadFull(conn, in); err != nil {
			return
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// roundTrips returns a probe that times request/response exchanges over
// one connection of network n: small both ways for a round-trip time, or
// a 4 MiB reply for raw link throughput.
func roundTrips(n transport.Network, addr string, reply int) func(string, timer) (Summary, error) {
	return func(_ string, tm timer) (Summary, error) {
		l, err := n.Listen(addr)
		if err != nil {
			return Summary{}, err
		}
		defer l.Close()
		go func() {
			if c, err := l.Accept(); err == nil {
				echo(c, 64, reply)
			}
		}()
		c, err := n.Dial(l.Addr())
		if err != nil {
			return Summary{}, err
		}
		defer c.Close()
		req, resp := make([]byte, 64), make([]byte, reply)
		op := func() error {
			if _, err := c.Write(req); err != nil {
				return err
			}
			_, err := io.ReadFull(c, resp)
			return err
		}
		if reply >= bulkOp {
			return tm.mbps(reply, op)
		}
		return tm.perCall("us", 1, op)
	}
}

// ---- pfs ----

// diskStore opens the named backend under dir.
func diskStore(backend, dir string) (pfs.Store, error) {
	if backend == "extent" {
		return pfs.NewExtentStore(pfs.ExtentConfig{Dir: dir})
	}
	return pfs.NewFileStore(dir)
}

// storeIO returns a probe of one store backend: size-byte reads or writes
// at successive offsets of one preloaded 64 MiB handle.
func storeIO(backend string, size int, write bool) func(string, timer) (Summary, error) {
	return func(dir string, tm timer) (Summary, error) {
		st, err := diskStore(backend, dir)
		if err != nil {
			return Summary{}, err
		}
		defer st.Close()
		const span = 64 << 20
		buf := make([]byte, bulkOp)
		fill(buf, 2, 0)
		for off := 0; off < span; off += bulkOp {
			if _, err := st.WriteAt(1, buf, uint64(off)); err != nil {
				return Summary{}, err
			}
		}
		off := 0
		op := func() (err error) {
			if write {
				_, err = st.WriteAt(1, buf[:size], uint64(off))
			} else {
				_, err = st.ReadAt(1, buf[:size], uint64(off))
			}
			off = (off + size) % span
			return err
		}
		if size >= bulkOp {
			return tm.mbps(size, op)
		}
		return tm.perCall("us", 1, op)
	}
}

// dataHandle4k calls DataServer.Handle directly — no network — with the
// 4 KiB ReadReq of small_ops, through the default admission gate.
func dataHandle4k(dir string, tm timer) (Summary, error) {
	st, err := pfs.NewExtentStore(pfs.ExtentConfig{Dir: dir})
	if err != nil {
		return Summary{}, err
	}
	defer st.Close()
	ds, err := pfs.NewDataServer(pfs.DataConfig{Store: st, Tenants: tenant.NewTable(tenant.DefaultLimit), QoS: &pfs.QoSConfig{}})
	if err != nil {
		return Summary{}, err
	}
	defer ds.Close()
	if _, err := st.WriteAt(1, make([]byte, smallFile), 0); err != nil {
		return Summary{}, err
	}
	req := &wire.ReadReq{Handle: 1, Length: smallOp}
	return tm.perCall("us", 1, func() error {
		resp, err := ds.Handle(req)
		ds.PostWrite(req, resp)
		return err
	})
}

// metaServer boots a journaled metadata server under dir.
func metaServer(dir string) (*pfs.MetaServer, error) {
	return pfs.NewMetaServer(pfs.MetaConfig{NumDataServers: 2, JournalPath: filepath.Join(dir, "meta.wal"), QoS: &pfs.QoSConfig{}})
}

func metaStat(dir string, tm timer) (Summary, error) {
	m, err := metaServer(dir)
	if err != nil {
		return Summary{}, err
	}
	defer m.Close()
	if _, err := m.Handle(&wire.CreateReq{Name: "f"}); err != nil {
		return Summary{}, err
	}
	req := &wire.StatReq{Name: "f"}
	return tm.perCall("us", 1, func() error {
		_, err := m.Handle(req)
		return err
	})
}

// metaCreate times a create and the remove that undoes it, as small_ops
// pairs them: two journal appends.
func metaCreate(dir string, tm timer) (Summary, error) {
	m, err := metaServer(dir)
	if err != nil {
		return Summary{}, err
	}
	defer m.Close()
	return tm.perCall("us", 1, func() error {
		if _, err := m.Handle(&wire.CreateReq{Name: "tmp"}); err != nil {
			return err
		}
		_, err := m.Handle(&wire.RemoveReq{Name: "tmp"})
		return err
	})
}

func gateAdmit(_ string, tm timer) (Summary, error) {
	g := pfs.NewQoSGate(pfs.QoSConfig{})
	defer g.Close()
	return tm.perCall("ns", 1, func() error {
		tk := g.Enqueue(ioqueue.Normal, "", smallOp)
		tk.Wait()
		tk.Release()
		return nil
	})
}

// ---- ioqueue / core / kernels ----

// queuePushPop pushes one active item per tenant and pops them all, per
// call; the reported time is per item.
func queuePushPop(tenants int) func(string, timer) (Summary, error) {
	return func(_ string, tm timer) (Summary, error) {
		q := ioqueue.New()
		defer q.Close()
		names := make([]string, tenants)
		for i := range names {
			names[i] = fmt.Sprintf("t%d", i)
		}
		var id uint64
		s, err := tm.perCall("ns", 1, func() error {
			for _, name := range names {
				id++
				if err := q.Push(ioqueue.Item{ID: id, Class: ioqueue.Active, Op: "sum8", Bytes: 1 << 20, Tenant: name}); err != nil {
					return err
				}
			}
			for range names {
				if _, err := q.Pop(); err != nil {
					return err
				}
			}
			return nil
		})
		return scaled(s, "ns", func(v float64) float64 { return v / float64(tenants) }), err
	}
}

func solveK16(_ string, tm timer) (Summary, error) {
	env := core.Env{BW: 118e6, StorageRate: 400e6, ComputeRate: 800e6}
	reqs := make([]core.Request, 16)
	for i := range reqs {
		reqs[i] = core.Request{ID: uint64(i + 1), Bytes: uint64(i+1) << 20, ResultBytes: 8, Op: "sum8"}
	}
	var solver core.MaxGain
	return tm.perCall("us", 16, func() error {
		solver.Solve(reqs, env)
		return nil
	})
}

// runtimeHandle1m runs sum8 over 1 MiB of a MemStore through
// Runtime.HandleActive in always-accept mode: queue, worker hand-off,
// store read and kernel, without a network.
func runtimeHandle1m(_ string, tm timer) (Summary, error) {
	st := pfs.NewMemStore()
	data := make([]byte, 1<<20)
	fill(data, 3, 0)
	if _, err := st.WriteAt(1, data, 0); err != nil {
		return Summary{}, err
	}
	rt, err := core.NewRuntime(core.RuntimeConfig{Store: st, Mode: core.ModeAlwaysAccept})
	if err != nil {
		return Summary{}, err
	}
	defer rt.Close()
	want := byteSum(data)
	var id uint64
	return tm.perCall("us", 1, func() error {
		id++
		resp, err := rt.HandleActive(&wire.ActiveReadReq{RequestID: id, Handle: 1, Length: 1 << 20, Op: "sum8"})
		if err == nil && kernels.Sum8Result(resp.Result) != want {
			err = fmt.Errorf("sum8 = %d, want %d", kernels.Sum8Result(resp.Result), want)
		}
		return err
	})
}

// kernelRate runs one kernel over a 4 MiB buffer at its real speed.
func kernelRate(op string, params []byte) func(string, timer) (Summary, error) {
	return func(_ string, tm timer) (Summary, error) {
		data := make([]byte, bulkOp)
		fill(data, 4, 0)
		return tm.mbps(len(data), func() error {
			k, err := kernels.New(op)
			if err != nil {
				return err
			}
			if err := k.Configure(params); err != nil {
				return err
			}
			if err := k.Process(data); err != nil {
				return err
			}
			_, err = k.Result()
			return err
		})
	}
}

// ---- observability planes ----

// telemetryTick times one sampler tick over the probes every storage node
// registers by default (the Go runtime series) with no listeners.
func telemetryTick(_ string, tm timer) (Summary, error) {
	s := telemetry.NewSampler(telemetry.Config{})
	telemetry.RegisterRuntimeProbes(s)
	return tm.perCall("us", 1, func() error {
		s.Tick()
		return nil
	})
}

func tsdbAppend(dir string, tm timer) (Summary, error) {
	a, err := tsdb.Open(tsdb.Config{Dir: dir})
	if err != nil {
		return Summary{}, err
	}
	defer a.Close()
	samples := make([]telemetry.Sample, 12)
	for i := range samples {
		samples[i] = telemetry.Sample{Name: fmt.Sprintf("series.%d", i), Value: float64(i)}
	}
	now := time.Now().UnixNano()
	return tm.perCall("us", 1, func() error {
		now += int64(100 * time.Millisecond)
		return a.Append(now, now, samples)
	})
}

func counterInc(_ string, tm timer) (Summary, error) {
	reg := metrics.NewRegistry()
	return tm.perCall("ns", 64, func() error {
		reg.Counter("data.read").Inc()
		return nil
	})
}

func traceRecord(_ string, tm timer) (Summary, error) {
	rec := trace.NewRecorder(4096)
	return tm.perCall("ns", 64, func() error {
		rec.Record(trace.KindStart, 1, "sum8", 1<<20, "")
		return nil
	})
}

func tenantAccount(_ string, tm timer) (Summary, error) {
	tab := tenant.NewTable(tenant.DefaultLimit)
	return tm.perCall("ns", 64, func() error {
		tab.Account("victim", func(s *tenant.Stats) { s.ReadOps++; s.BytesRead += smallOp })
		return nil
	})
}

func auditAppend(_ string, tm timer) (Summary, error) {
	log := audit.NewLog(4096)
	rec := audit.Record{Solver: "maxgain", Trigger: "arrival", Reqs: make([]audit.Feature, 8)}
	return tm.perCall("ns", 16, func() error {
		log.Append(rec)
		return nil
	})
}

// allProbes is every layer probe, run once per suite run for a second
// each.
func allProbes() []probe {
	return []probe{
		{"wire.codec_ns_small", "ns", codecSmall},
		{"wire.frame_mbps_ordered", "MB/s", frameStream(bodyFile, false)},
		{"wire.frame_mbps_mux", "MB/s", frameStream(bodyFile, true)},
		{"wire.payload_mbps_sendfile", "MB/s", frameStream(bodyFile, false)},
		{"wire.payload_mbps_writev", "MB/s", frameStream(bodyMemory, false)},
		{"wire.payload_mbps_copy", "MB/s", frameStream(bodyPlain, false)},
		{"transport.tcp_rtt_us", "us", roundTrips(transport.TCP{}, "127.0.0.1:0", 64)},
		{"transport.tcp_mbps", "MB/s", roundTrips(transport.TCP{}, "127.0.0.1:0", bulkOp)},
		{"transport.inproc_rtt_us", "us", roundTrips(transport.NewInproc(), "probe", 64)},
		{"pfs.extent_read_us_4k", "us", storeIO("extent", smallOp, false)},
		{"pfs.extent_write_us_4k", "us", storeIO("extent", smallOp, true)},
		{"pfs.extent_read_mbps_4m", "MB/s", storeIO("extent", bulkOp, false)},
		{"pfs.extent_write_mbps_4m", "MB/s", storeIO("extent", bulkOp, true)},
		{"pfs.filestore_read_us_4k", "us", storeIO("file", smallOp, false)},
		{"pfs.filestore_read_mbps_4m", "MB/s", storeIO("file", bulkOp, false)},
		{"pfs.filestore_write_mbps_4m", "MB/s", storeIO("file", bulkOp, true)},
		{"pfs.data_handle_us_4k", "us", dataHandle4k},
		{"pfs.meta_stat_us", "us", metaStat},
		{"pfs.meta_create_us", "us", metaCreate},
		{"pfs.gate_admit_ns", "ns", gateAdmit},
		{"ioqueue.push_pop_ns_t1", "ns", queuePushPop(1)},
		{"ioqueue.push_pop_ns_t16", "ns", queuePushPop(16)},
		{"core.solve_us_k16", "us", solveK16},
		{"core.runtime_handle_us_1m", "us", runtimeHandle1m},
		{"kernels.sum8_mbps", "MB/s", kernelRate("sum8", nil)},
		{"kernels.gaussian2d_mbps", "MB/s", kernelRate("gaussian2d", kernels.GaussianParams(2048, false))},
		{"telemetry.tick_us", "us", telemetryTick},
		{"tsdb.append_us", "us", tsdbAppend},
		{"metrics.counter_inc_ns", "ns", counterInc},
		{"trace.record_ns", "ns", traceRecord},
		{"tenant.account_ns", "ns", tenantAccount},
		{"audit.append_ns", "ns", auditAppend},
	}
}

// contractProbes are the probes BENCHMARK.json lists among its per_layer
// metrics — the ones a data-path or per-message optimisation is most
// likely to move. A driver run has seconds for them, not half a minute,
// so it runs this subset and each for a shorter time.
var contractProbes = pick(allProbes(),
	"wire.codec_ns_small", "wire.frame_mbps_ordered", "wire.frame_mbps_mux",
	"wire.payload_mbps_writev", "wire.payload_mbps_copy",
	"transport.tcp_rtt_us", "transport.tcp_mbps",
	"pfs.extent_read_us_4k", "pfs.extent_write_mbps_4m", "pfs.data_handle_us_4k",
	"pfs.meta_stat_us", "pfs.meta_create_us", "pfs.gate_admit_ns",
	"ioqueue.push_pop_ns_t16", "core.solve_us_k16", "core.runtime_handle_us_1m",
	"kernels.sum8_mbps", "metrics.counter_inc_ns", "tenant.account_ns",
)

func pick(ps []probe, names ...string) []probe {
	var out []probe
	for _, name := range names {
		for _, p := range ps {
			if p.name == name {
				out = append(out, p)
			}
		}
	}
	return out
}
