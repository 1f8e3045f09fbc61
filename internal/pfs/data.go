package pfs

import (
	"fmt"
	"sync/atomic"
	"time"

	"dosas/internal/audit"
	"dosas/internal/eventlog"
	"dosas/internal/ioqueue"
	"dosas/internal/metrics"
	"dosas/internal/slo"
	"dosas/internal/telemetry"
	"dosas/internal/tenant"
	"dosas/internal/trace"
	"dosas/internal/tsdb"
	"dosas/internal/wire"
)

// ActiveHandler is the extension point through which the core package
// plugs active-storage processing into a data server. A plain data server
// (no active runtime attached) rejects active requests with
// wire.StatusUnsupported, which clients treat as "always bounce" —
// degrading gracefully to traditional storage.
type ActiveHandler interface {
	// HandleActive services one active read; it may block for the full
	// duration of kernel execution.
	HandleActive(req *wire.ActiveReadReq) (*wire.ActiveReadResp, error)
	// HandleProbe reports current load for the Contention Estimator.
	HandleProbe() (*wire.ProbeResp, error)
	// HandleCancel withdraws a queued or running active request.
	HandleCancel(req *wire.CancelReq) (*wire.CancelResp, error)
	// HandleTransform runs a kernel over local data and writes the
	// output locally (active write-back).
	HandleTransform(req *wire.TransformReq) (*wire.TransformResp, error)
}

// DataConfig configures a data server.
type DataConfig struct {
	// Store backs the server's stripe streams; required.
	Store Store
	// Metrics receives operation counters; optional.
	Metrics *metrics.Registry
	// Node is this server's identity in stats and trace exports (e.g.
	// "data-0"). Optional.
	Node string
	// Trace is the node's lifecycle-event ring, served to operators as
	// the trace introspection. Usually shared with the attached active
	// runtime. Optional.
	Trace *trace.Recorder
	// Telemetry is the node's time-series sampler, served to operators
	// as the series introspection. Usually shared with (and owned by) the
	// attached active runtime. Optional.
	Telemetry *telemetry.Sampler
	// Audit is the node's scheduling-decision ring, served to operators
	// as the decisions introspection. Usually shared with (and written by)
	// the attached active runtime. Optional.
	Audit *audit.Log
	// Events is the node's structured event log, served to operators as
	// the events introspection. Usually shared with the attached active
	// runtime. Optional.
	Events *eventlog.Log
	// SLO is the node's alert engine, served as the alerts introspection
	// and contributing readiness checks to health. Optional.
	SLO *slo.Engine
	// Tenants is the node's per-tenant usage table, fed by the normal
	// I/O handlers and served as the tenants introspection. Usually shared
	// with the attached active runtime. Optional: nil disables attribution.
	Tenants *tenant.Table
	// Archive is the node's durable telemetry archive, served as the
	// query introspection. Owned by the node builder (dosas.Node: it hooks
	// the sampler and closes it); nil when the node runs without
	// -archive-dir.
	Archive *tsdb.Archive
	// QoS, when non-nil, gates every read and write through a
	// weighted-fair admission queue (see QoSGate). Nil disables
	// enforcement: requests serve in arrival order, as before.
	QoS *QoSConfig
}

// DataServer is one storage node's I/O service: it stores the server-local
// byte streams of striped files and forwards active-storage requests to an
// attached ActiveHandler.
type DataServer struct {
	store Store
	planes
	// active is the attached runtime (an ActiveHandler), behind an
	// atomic: the node builder attaches it after the server is built, and
	// request handlers and introspection read it from their own
	// goroutines.
	active atomic.Value

	// Zero-copy state: ranger is the store's RangeReader side (nil for
	// MemStore), extents the store when it is an ExtentStore (mapped
	// reads, write landings), wireStats is shared with every framing
	// writer and reader of this server and mirrored into reg by
	// SyncWireStats.
	ranger    RangeReader
	extents   *ExtentStore
	wireStats wire.FrameStats

	m dataMetrics

	// QoS enforcement: gate admits reads/writes in weighted-fair order
	// (nil = disabled), cancels tracks in-flight normal reads by ReqID.
	gate    *QoSGate
	cancels cancelRegistry
}

// dataMetrics are the data server's counters and its normal-I/O pressure
// gauge, resolved once: a lookup by name takes the registry's one lock,
// which every handler and the telemetry sampler share.
type dataMetrics struct {
	read, write, trunc, cancel, readCancelled *metrics.Counter
	bytesRead, bytesWritten, bytesCopied      *metrics.Counter
	inflight                                  *metrics.Gauge // data.inflight
}

func newDataMetrics(reg *metrics.Registry) dataMetrics {
	return dataMetrics{
		read: reg.Counter("data.read"), write: reg.Counter("data.write"), trunc: reg.Counter("data.trunc"),
		cancel: reg.Counter("data.cancel"), readCancelled: reg.Counter("data.read_cancelled"),
		bytesRead: reg.Counter("data.bytes_read"), bytesWritten: reg.Counter("data.bytes_written"),
		bytesCopied: reg.Counter("data.bytes_copied"),
		inflight:    reg.Gauge("data.inflight"),
	}
}

// NewDataServer builds a data server over cfg.Store.
func NewDataServer(cfg DataConfig) (*DataServer, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("%w: data server needs a store", ErrInvalid)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	ds := &DataServer{
		store: cfg.Store, m: newDataMetrics(cfg.Metrics),
		planes: planes{
			node: cfg.Node, role: "data", started: time.Now(), reg: cfg.Metrics,
			trace: cfg.Trace, tele: cfg.Telemetry, audit: cfg.Audit, events: cfg.Events,
			slo: cfg.SLO, tenants: cfg.Tenants, archive: cfg.Archive,
		},
	}
	ds.ranger, _ = cfg.Store.(RangeReader)
	ds.extents, _ = cfg.Store.(*ExtentStore)
	if cfg.QoS != nil {
		ds.gate = NewQoSGate(*cfg.QoS)
		ds.gate.SetTenants(cfg.Tenants)
	}
	if s := cfg.Telemetry; s != nil && ds.gate != nil {
		// Weighted-fair QoS activity, node-wide: the gate's queue holds
		// normal and (with a runtime attached) active work alike.
		// qos.throttled is heads-deferred-for-credit per second — the
		// shaping actually biting; qos.deficit is banked credit in bytes.
		s.Register("qos.throttled", telemetry.RateProbe(func() float64 {
			return float64(ds.gate.Stats().Throttled)
		}, s.Interval()))
		s.Register("qos.deficit", func() float64 {
			return float64(ds.gate.Stats().DeficitBytes)
		})
		s.Register("qos.queued", func() float64 { return float64(ds.gate.Stats().NormalLen) })
	}
	if s := cfg.Telemetry; s != nil && ds.ranger != nil {
		// How a disk-backed node's read bytes leave it: kernel-moved
		// (sendfile) vs staged through user space (pooled copies,
		// inline encodes). Memory-backed nodes skip the series — they
		// have no zero-copy path to observe.
		s.Register("zerocopy.sendfile.bps", telemetry.RateProbe(func() float64 {
			return float64(ds.wireStats.SendfileBytes.Load())
		}, s.Interval()))
		s.Register("zerocopy.copied.bps", telemetry.RateProbe(func() float64 {
			return float64(ds.wireStats.CopiedBytes.Load() + ds.m.bytesCopied.Value())
		}, s.Interval()))
	}
	return ds, nil
}

// probe answers a ProbeReq: the attached runtime's active half, and the
// normal-I/O half from this server — the reads and writes in flight
// (data.inflight, the count the estimator discounts S by) and the bytes
// queued at the admission gate.
func (ds *DataServer) probe() (*wire.ProbeResp, error) {
	p := &wire.ProbeResp{}
	if h := ds.activeHandler(); h != nil {
		var err error
		if p, err = h.HandleProbe(); err != nil {
			return nil, err
		}
	}
	p.QueueLen = uint32(max(0, ds.m.inflight.Value()))
	if ds.gate != nil {
		p.BytesQueued += ds.gate.Stats().NormalBytes
	}
	return p, nil
}

// Gate exposes the admission gate (nil when QoS is disabled) — tests
// and the bench harness inspect its stats.
func (ds *DataServer) Gate() *QoSGate { return ds.gate }

// Close closes the admission gate. The server remains usable — later
// requests that find no gate slot free are admitted at once (fail open).
func (ds *DataServer) Close() { ds.gate.Close() }

// WireStats exposes the server's frame-transport counters; the RPC
// server shares this struct across every connection's framing writer.
func (ds *DataServer) WireStats() *wire.FrameStats { return &ds.wireStats }

// SetActiveHandler attaches the active-storage runtime. Must be called
// before the server starts handling requests. A handler that admits its
// work through a gate (the runtime's UseGate) is handed this server's, so
// the node runs one queue; without a gate it keeps its own.
func (ds *DataServer) SetActiveHandler(h ActiveHandler) {
	if u, ok := h.(interface{ UseGate(*QoSGate) }); ok && ds.gate != nil {
		u.UseGate(ds.gate)
	}
	ds.active.Store(h)
}

// activeHandler returns the attached runtime, or nil when none is.
func (ds *DataServer) activeHandler() ActiveHandler {
	h, _ := ds.active.Load().(ActiveHandler)
	return h
}

// Store exposes the backing store, for the active runtime to read stripes
// locally (the whole point of active storage: no network hop to the data).
func (ds *DataServer) Store() Store { return ds.store }

// Metrics returns the server's metric registry.
func (ds *DataServer) Metrics() *metrics.Registry { return ds.reg }

// Handle implements the Handler interface for wire messages.
func (ds *DataServer) Handle(msg wire.Message) (wire.Message, error) {
	switch req := msg.(type) {
	case *wire.Ping:
		return &wire.Pong{Seq: req.Seq}, nil
	case *wire.ReadReq:
		return ds.read(req)
	case *wire.WriteReq:
		return ds.write(req)
	case *wire.TruncReq:
		return ds.trunc(req)
	case *wire.ActiveReadReq:
		if h := ds.activeHandler(); h != nil {
			return h.HandleActive(req)
		}
		return nil, fmt.Errorf("%w: no active runtime attached", ErrUnsupported)
	case *wire.ProbeReq:
		return ds.probe()
	case *wire.CancelReq:
		return ds.cancel(req)
	case *wire.TransformReq:
		if h := ds.activeHandler(); h != nil {
			return h.HandleTransform(req)
		}
		return nil, fmt.Errorf("%w: no active runtime attached", ErrUnsupported)
	case *wire.LocalSizeReq:
		return &wire.LocalSizeResp{Size: ds.store.Size(req.Handle)}, nil
	case *wire.IntrospectReq:
		return ds.introspect(req, ds)
	default:
		return nil, fmt.Errorf("%w: data server got %v", ErrUnsupported, msg.Type())
	}
}

// healthChecks implements introspectHook: the store is always checked, and
// an attached active runtime contributes its per-resource checks (queue
// saturation, estimator, memory). A plain data server — no runtime — stays
// ready: it serves normal I/O fine and clients already degrade active
// requests to bounce.
func (ds *DataServer) healthChecks() []telemetry.Check {
	checks := []telemetry.Check{{Name: "store", OK: true, Detail: "attached"}}
	if hc, ok := ds.activeHandler().(healthChecker); ok {
		checks = append(checks, hc.HealthChecks()...)
	} else {
		checks = append(checks, telemetry.Check{Name: "active", OK: true, Detail: "no runtime attached"})
	}
	// Firing alerts fail readiness: an operator looking at health sees
	// which rule is breaching, not just a red light.
	checks = append(checks, ds.slo.Checks()...)
	if dropped := ds.tele.Dropped(); dropped > 0 {
		checks = append(checks, telemetry.Check{
			Name: "telemetry", OK: true,
			Detail: fmt.Sprintf("%d ring samples overwritten", dropped),
		})
	}
	return checks
}

// healthChecker is how a data server discovers per-resource readiness from
// its attached active runtime without importing core (which imports pfs).
type healthChecker interface {
	HealthChecks() []telemetry.Check
}

// statsMode implements introspectHook: the wire counters are mirrored into
// the registry, and the scheduling mode is discovered from the active
// handler without importing core — any handler naming its mode qualifies.
func (ds *DataServer) statsMode() string {
	ds.SyncWireStats()
	if m, ok := ds.activeHandler().(interface{ ModeName() string }); ok {
		return m.ModeName()
	}
	return ""
}

// SyncWireStats mirrors the frame-transport counters into the metrics
// registry (wire.mapped_bytes, wire.sendfile_bytes, wire.writev_calls,
// wire.copied_bytes, and
// on the receive side wire.landed_bytes and wire.recv_copied_bytes), and
// with them the store's and the gate's: an extent store's fd-cache hits
// and misses (store.fd_hits, store.fd_misses) and its mapped extent files
// (the store.mapped_extents gauge), and the admission gate's
// deferrals of a tenant short of credit (gate.throttled). Those counters
// are atomics written on the framing hot path, or fields kept under the
// cache's and the gate queue's own locks; mirroring happens only when a
// snapshot is taken, keeping the hot path free of registry lookups. The
// stats introspection calls it automatically; in-process snapshot
// readers that bypass introspection call it directly.
func (ds *DataServer) SyncWireStats() {
	mirrorCounter(ds.reg, "wire.mapped_bytes", ds.wireStats.MappedBytes.Load())
	mirrorCounter(ds.reg, "wire.sendfile_bytes", ds.wireStats.SendfileBytes.Load())
	mirrorCounter(ds.reg, "wire.writev_calls", ds.wireStats.WritevCalls.Load())
	mirrorCounter(ds.reg, "wire.copied_bytes", ds.wireStats.CopiedBytes.Load())
	mirrorCounter(ds.reg, "wire.landed_bytes", ds.wireStats.LandedBytes.Load())
	mirrorCounter(ds.reg, "wire.recv_copied_bytes", ds.wireStats.RecvCopiedBytes.Load())
	if ds.extents != nil {
		hits, misses, mapped := ds.extents.fds.counts()
		mirrorCounter(ds.reg, "store.fd_hits", hits)
		mirrorCounter(ds.reg, "store.fd_misses", misses)
		ds.reg.Gauge("store.mapped_extents").Set(mapped)
	}
	if ds.gate != nil {
		mirrorCounter(ds.reg, "gate.throttled", int64(ds.gate.Stats().Throttled))
	}
}

// PostWrite implements the pfs.PostWriter hook: a read or write stays
// counted as in flight until its response has left the server, so the
// "data.inflight" pressure gauge covers the transfer time on slow links.
// It fires once per handled request, error responses included, keeping
// the gauge balanced with the increments in read and write — or, for a
// landed write, in WriteDest, which raised it while the body landed. It is
// also where the read path's pooled buffer is recycled: the response frame
// is a copy of it, so once the frame has been written the buffer is free.
func (ds *DataServer) PostWrite(req, resp wire.Message) {
	switch r := req.(type) {
	case *wire.ReadReq:
		ds.m.inflight.Add(-1)
		if r.ReqID != 0 {
			ds.cancels.unregister(r.ReqID)
		}
	case *wire.WriteReq:
		ds.m.inflight.Add(-1)
	}
	if rr, ok := resp.(*wire.ReadResp); ok {
		if rr.PoolBuf != nil {
			wire.PutBuf(rr.PoolBuf)
			rr.PoolBuf = nil
		}
		if rr.Payload != nil {
			// Drops the payload's fd-cache references now that the frame
			// is on the wire (or has definitively failed).
			rr.Payload.Close() //nolint:errcheck // release-only
			rr.Payload = nil
		}
	}
}

// zeroCopyMin is the smallest read served by reference: below it the
// fixed cost of building a payload (fd-cache refs, iovecs, and for
// sendfile extra writes for the frame head and tail) outweighs the saved
// copy.
const zeroCopyMin = 64 << 10

// cancel answers a CancelReq: normal-read registry first, then the
// active runtime. Hedge-tagged ids (HedgeIDBit) belong exclusively to
// the registry — an unknown one leaves a tombstone so the ReadReq it
// raced stops before serving (mux handlers dispatch concurrently, so
// the cancel can overtake its target).
func (ds *DataServer) cancel(req *wire.CancelReq) (wire.Message, error) {
	if ds.cancels.cancel(req.RequestID) {
		ds.m.cancel.Inc()
		return &wire.CancelResp{Found: true}, nil
	}
	h := ds.activeHandler()
	if req.RequestID&HedgeIDBit != 0 || h == nil {
		return &wire.CancelResp{}, nil
	}
	return h.HandleCancel(req)
}

func (ds *DataServer) read(req *wire.ReadReq) (wire.Message, error) {
	ds.m.read.Inc()
	ds.m.inflight.Add(1) // released by PostWrite
	var served uint64    // bytes attributed to the caller's tenant
	defer func() {
		ds.tenants.Account(req.Tenant, func(s *tenant.Stats) { s.ReadOps++; s.BytesRead += served })
	}()
	// Cancellable read: register before the gate so a CancelReq can
	// withdraw the ticket while it queues. PostWrite unregisters.
	var cs *cancelState
	if req.ReqID != 0 {
		cs = ds.cancels.register(req.ReqID)
	}
	if ds.gate != nil {
		tk := ds.gate.Enqueue(ioqueue.Normal, req.Tenant, uint64(req.Length))
		if cs != nil {
			ds.cancels.attach(cs, tk)
		}
		if !tk.Wait() {
			ds.m.readCancelled.Inc()
			return nil, fmt.Errorf("read %d: %w", req.ReqID, ErrCancelled)
		}
		defer tk.Release()
	}
	if cs != nil && cs.flag.Load() {
		// Cancelled between admission and service: answer small.
		ds.m.readCancelled.Inc()
		return nil, fmt.Errorf("read %d: %w", req.ReqID, ErrCancelled)
	}
	if req.Length > wire.MaxFrameSize-64 {
		return nil, fmt.Errorf("%w: read of %d bytes exceeds frame budget", ErrInvalid, req.Length)
	}
	size := ds.store.Size(req.Handle)
	if req.Length >= zeroCopyMin && req.Offset < size {
		n := min(uint64(req.Length), size-req.Offset)
		if p := ds.byRef(req.Handle, req.Offset, n); p != nil {
			ds.m.bytesRead.Add(int64(n))
			served = n
			// Closed in PostWrite once the frame has left the server.
			resp := &wire.ReadResp{Payload: p, EOF: req.Offset+n >= size}
			if cs != nil {
				resp.Cancelled = &cs.flag
			}
			return resp, nil
		}
	}
	buf := wire.GetBuf(int(req.Length)) // returned to the pool in PostWrite
	n, err := ds.store.ReadAt(req.Handle, buf, req.Offset)
	if err != nil {
		wire.PutBuf(buf) // error response carries no data; recycle now
		return nil, err
	}
	ds.m.bytesRead.Add(int64(n))
	served = uint64(n)
	// The store just staged n bytes into a user-space buffer; the wire
	// layer counts any further copies (wire.copied_bytes).
	ds.m.bytesCopied.Add(int64(n))
	eof := req.Offset+uint64(n) >= size
	resp := &wire.ReadResp{Data: buf[:n], EOF: eof, PoolBuf: buf}
	if cs != nil {
		resp.Cancelled = &cs.flag
	}
	return resp, nil
}

// byRef returns n bytes of handle's stream at off as a payload the frame
// writers move by reference, or nil for the copy path. On an ExtentStore
// whose extent files hold every byte it is their read-only mappings in
// place, which leave in one writev per mux segment; anything else a
// RangeReader serves goes by sendfile. A ReadRange failure (a
// Truncate/Remove race, fd exhaustion) falls back to the copy path too,
// which re-reads whatever is there now.
func (ds *DataServer) byRef(handle, off, n uint64) wire.Payload {
	if ds.extents != nil {
		if p := ds.extents.mappedRange(handle, off, n); p != nil {
			return p
		}
	}
	if ds.ranger != nil {
		if p, err := ds.ranger.ReadRange(handle, off, n); err == nil {
			return p
		}
	}
	return nil
}

// WriteDest lands a WriteReq's body in the page cache: the read loop of
// every connection asks it once the request's handle, offset and body
// length are in (Server sets it as the MuxReader's WriteDest). It grants a
// landing only when all of these hold, and nil keeps the buffered path:
//   - size: the body is at least zeroCopyMin (smaller ones cost more in
//     mincore and mapping than the copy they save);
//   - range: the store is an ExtentStore, and the range lies inside the
//     stream and inside existing extent files — an extending write keeps
//     pwrite (checked first, from the size cache);
//   - residency: every page of the range is in the page cache, since a
//     write into a mapped page that is not reads it from the disk first;
//   - gate: the gate is idle (Idle); a busy gate queues the write in WDRR
//     order as before.
//
// A landing takes no gate slot: the read loop that fills it must never
// wait on the gate, or on the handlers queued there. The write passes the
// gate in write, as a buffered one does, once its body is in. A grant
// raises data.inflight, so the estimator sees the write while it lands.
func (ds *DataServer) WriteDest(handle, off uint64, n int) wire.WriteLanding {
	if n < zeroCopyMin || ds.extents == nil {
		return nil
	}
	parts, ok := ds.extents.landing(handle, off, n)
	if !ok {
		return nil
	}
	if !ds.gate.Idle() {
		ds.extents.unpin(parts)
		return nil
	}
	ds.m.inflight.Add(1) // released by PostWrite, or by Abort
	return &writeLanding{ds: ds, parts: parts}
}

// write admits a write through the gate, then pwrites its body from the
// request's frame buffer — or, for a landed body, already in the page
// cache, only finishes the landing.
func (ds *DataServer) write(req *wire.WriteReq) (wire.Message, error) {
	ds.m.write.Inc()
	wl, isLanded := req.Lander.(*writeLanding)
	size := len(req.Data)
	if isLanded {
		size = req.Landed // data.inflight was raised when the landing was granted
	} else {
		ds.m.inflight.Add(1) // released by PostWrite
	}
	if ds.gate != nil {
		tk := ds.gate.Enqueue(ioqueue.Normal, req.Tenant, uint64(size))
		tk.Wait() // writes are not cancellable; Wait always grants
		defer tk.Release()
	}
	var n int
	var err error
	if isLanded {
		n, err = req.Landed, wl.finish()
	} else {
		n, err = ds.store.WriteAt(req.Handle, req.Data, req.Offset)
	}
	if err != nil {
		ds.tenants.Account(req.Tenant, func(s *tenant.Stats) { s.WriteOps++ })
		return nil, err
	}
	ds.m.bytesWritten.Add(int64(n))
	ds.tenants.Account(req.Tenant, func(s *tenant.Stats) { s.WriteOps++; s.BytesWritten += uint64(n) })
	return &wire.WriteResp{N: uint32(n)}, nil
}

func (ds *DataServer) trunc(req *wire.TruncReq) (wire.Message, error) {
	ds.m.trunc.Inc()
	ds.tenants.Account(req.Tenant, func(s *tenant.Stats) { s.TruncOps++ })
	if req.Remove {
		if err := ds.store.Remove(req.Handle); err != nil {
			return nil, err
		}
		return &wire.TruncResp{}, nil
	}
	if err := ds.store.Truncate(req.Handle, req.Size); err != nil {
		return nil, err
	}
	return &wire.TruncResp{}, nil
}
