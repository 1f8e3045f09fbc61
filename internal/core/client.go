package core

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dosas/internal/kernels"
	"dosas/internal/metrics"
	"dosas/internal/pfs"
	"dosas/internal/telemetry"
	"dosas/internal/trace"
	"dosas/internal/wire"
)

// Scheme selects how the client issues analysis reads — the three schemes
// the paper evaluates (Section IV-A3).
type Scheme int

// Analysis schemes.
const (
	// SchemeDOSAS requests active I/O and lets the storage node's
	// dynamic policy accept, bounce, or interrupt it.
	SchemeDOSAS Scheme = iota
	// SchemeAS requests active I/O unconditionally (classic active
	// storage); a refusing server is still honoured by local fallback.
	SchemeAS
	// SchemeTS never requests active I/O: raw data is read and the
	// kernel runs on the compute node (traditional storage).
	SchemeTS
)

// String names the scheme as the paper abbreviates it.
func (s Scheme) String() string {
	switch s {
	case SchemeDOSAS:
		return "DOSAS"
	case SchemeAS:
		return "AS"
	case SchemeTS:
		return "TS"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// ClientConfig configures an Active Storage Client.
type ClientConfig struct {
	// FS is the parallel file system client; required.
	FS *pfs.Client
	// Scheme selects TS / AS / DOSAS behaviour. Default SchemeDOSAS.
	Scheme Scheme
	// Tenant identifies this client's workload on every active request it
	// issues; storage nodes attribute the resources the request consumes
	// (queue wait, kernel CPU, bounces) to it. Empty means the default
	// tenant and keeps the wire format byte-identical to pre-tenant
	// clients.
	Tenant string
	// ChunkSize is the read granularity for client-side kernel
	// execution. Defaults to 1 MiB.
	ChunkSize int
	// WindowDepth is how many chunk reads the transfer phase of local
	// (bounced/migrated) computation keeps in flight per server. 0 takes
	// pfs.DefaultWindowDepth. The pipelining stays strictly inside the
	// transfer phase: transfer and computation remain serial, as the
	// Contention Estimator's workload model requires.
	WindowDepth int
	// Pace throttles client-side kernel execution to the calibrated
	// per-core rate, emulating the paper's compute nodes on fast hosts.
	Pace bool
	// Telemetry is the client's time-series sampler. The client registers
	// its probes (pending requests, shipped-bytes rate, bounce rate) on
	// it, starts it, and owns it: Close stops it. Nil disables client
	// telemetry.
	Telemetry *telemetry.Sampler
	// SlowThreshold flags any active read slower than this absolute bound
	// for flight capture. Zero disables the absolute criterion.
	SlowThreshold time.Duration
	// SlowFactor flags any active read slower than SlowFactor× the median
	// of recent reads. Zero disables the relative criterion. With both
	// criteria zero the flight recorder never captures.
	SlowFactor float64
	// SlowDir, when set, persists captured flight bundles as JSON files
	// under this directory so dosasctl slow can read them from another
	// process.
	SlowDir string
}

// Client is the Active Storage Client (ASC): it runs on compute nodes,
// offers the active I/O entry point, and completes requests locally when a
// storage node bounces or interrupts them — without application
// involvement, as in paper Section III-B.
type Client struct {
	cfg       ClientConfig
	reg       *metrics.Registry
	trace     *trace.Recorder // client-side lifecycle events, node "client"
	nextID    atomic.Uint64
	traceSeed uint64 // random high bits distinguishing this client process
	nextTrace atomic.Uint64
	slow      *telemetry.SlowDetector
	flight    *telemetry.FlightRecorder
	closeOnce sync.Once

	mu      sync.Mutex
	pending map[uint64]pendingReq // the paper's local registration table
}

// pendingReq mirrors the paper's ASC-side registration of each active I/O:
// operation, I/O size, and file handle.
type pendingReq struct {
	op     string
	bytes  uint64
	handle uint64
}

// NewClient builds an ASC over an existing pfs client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.FS == nil {
		return nil, fmt.Errorf("core: client needs a pfs.Client")
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 1 << 20
	}
	tr := trace.NewRecorder(1024)
	tr.SetNode("client")
	var seed [4]byte
	_, _ = crand.Read(seed[:]) // on failure the counter alone keeps IDs nonzero
	c := &Client{
		cfg:       cfg,
		reg:       metrics.NewRegistry(),
		trace:     tr,
		traceSeed: uint64(binary.LittleEndian.Uint32(seed[:])) << 32,
		pending:   make(map[uint64]pendingReq),
	}
	if cfg.SlowThreshold > 0 || cfg.SlowFactor > 0 {
		c.slow = telemetry.NewSlowDetector(cfg.SlowThreshold, cfg.SlowFactor, 0)
		fr, err := telemetry.NewFlightRecorder(telemetry.FlightConfig{Dir: cfg.SlowDir})
		if err != nil {
			return nil, err
		}
		c.flight = fr
	}
	c.registerProbes()
	cfg.Telemetry.Start()
	return c, nil
}

// Close stops the client's telemetry sampler. Safe to call more than
// once; a client built without telemetry needs no Close but tolerates
// one.
func (c *Client) Close() error {
	c.closeOnce.Do(func() { c.cfg.Telemetry.Close() })
	return nil
}

// mintTraceID returns a new cluster-unique distributed trace id: random
// per-process high bits plus a local counter, never zero (zero means
// "untraced" on the wire).
func (c *Client) mintTraceID() uint64 {
	return c.traceSeed | uint64(c.nextTrace.Add(1))
}

// Trace exposes the client-side lifecycle-event recorder.
func (c *Client) Trace() *trace.Recorder { return c.trace }

// Scheme returns the client's configured scheme.
func (c *Client) Scheme() Scheme { return c.cfg.Scheme }

// Metrics returns the client's metric registry.
func (c *Client) Metrics() *metrics.Registry { return c.reg }

// Where records where the work of one per-server part was executed.
type Where uint8

// Execution sites.
const (
	// OnStorage: the kernel ran fully on the storage node.
	OnStorage Where = iota
	// OnCompute: the request was bounced and the kernel ran here.
	OnCompute
	// Migrated: the kernel started on the storage node, was interrupted,
	// and finished here from its checkpoint.
	Migrated
)

// String names the execution site.
func (w Where) String() string {
	switch w {
	case OnStorage:
		return "storage"
	case OnCompute:
		return "compute"
	case Migrated:
		return "migrated"
	default:
		return fmt.Sprintf("where(%d)", int(w))
	}
}

// PartInfo describes one per-storage-node part of an active read.
type PartInfo struct {
	Server        uint32
	Bytes         uint64 // input bytes the part covered
	Where         Where
	BytesShipped  uint64 // raw bytes moved over the network for this part
	ServerElapsed time.Duration
}

// Result is what an active read returns: the paper's struct result plus
// execution provenance. Completed is always true by the time the call
// returns — the ASC transparently finishes bounced work — and mirrors the
// paper's completed flag after ASC post-processing.
type Result struct {
	Completed bool
	Output    []byte
	Parts     []PartInfo
	Elapsed   time.Duration
	// TraceID is the distributed trace id minted for this read; every
	// client- and storage-side event it produced carries it.
	TraceID uint64
}

// BytesShipped totals raw data movement across parts.
func (r *Result) BytesShipped() uint64 {
	var n uint64
	for _, p := range r.Parts {
		n += p.BytesShipped
	}
	return n
}

// ActiveRead runs operation op (with kernel parameters params) over the
// file range [off, off+length) and returns the combined result. Per the
// configured scheme it either ships the computation to the storage nodes
// holding the range's stripes, reads raw data and computes locally, or
// lets DOSAS decide per storage node.
func (c *Client) ActiveRead(f *pfs.File, off, length uint64, op string, params []byte) (*Result, error) {
	if length == 0 {
		return nil, fmt.Errorf("core: zero-length active read")
	}
	if size := f.Size(); off+length > size {
		return nil, fmt.Errorf("core: active read [%d,%d) beyond file size %d", off, off+length, size)
	}
	ranges := localRanges(f, off, length)
	if len(ranges) > 1 && !kernels.CanCombine(op) {
		return nil, fmt.Errorf("core: operation %q spans %d storage nodes but is not combinable", op, len(ranges))
	}
	traceID := c.mintTraceID()
	start := time.Now()
	type partOut struct {
		idx  int
		info PartInfo
		out  []byte
		err  error
	}
	results := make(chan partOut, len(ranges))
	for i, lr := range ranges {
		go func(i int, lr localRange) {
			info, out, err := c.processRange(f, lr, op, params, traceID)
			results <- partOut{idx: i, info: info, out: out, err: err}
		}(i, lr)
	}
	parts := make([][]byte, len(ranges))
	infos := make([]PartInfo, len(ranges))
	var firstErr error
	for range ranges {
		po := <-results
		if po.err != nil && firstErr == nil {
			firstErr = po.err
		}
		parts[po.idx] = po.out
		infos[po.idx] = po.info
	}
	if firstErr != nil {
		return nil, firstErr
	}
	combined, err := kernels.Combine(op, parts)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Completed: true,
		Output:    combined,
		Parts:     infos,
		Elapsed:   time.Since(start),
		TraceID:   traceID,
	}
	c.observeSlow(res, op, length)
	return res, nil
}

// ActiveReadMany runs the same combinable operation over several whole
// files concurrently and combines all per-file outputs into one result —
// the ensemble/sweep pattern (e.g. global statistics over every member of
// a dataset directory) as a single call.
func (c *Client) ActiveReadMany(files []*pfs.File, op string, params []byte) (*Result, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("core: no files to read")
	}
	if !kernels.CanCombine(op) {
		return nil, fmt.Errorf("core: operation %q is not combinable across files", op)
	}
	start := time.Now()
	type out struct {
		idx int
		res *Result
		err error
	}
	results := make(chan out, len(files))
	for i, f := range files {
		go func(i int, f *pfs.File) {
			res, err := c.ActiveRead(f, 0, f.Size(), op, params)
			results <- out{idx: i, res: res, err: err}
		}(i, f)
	}
	parts := make([][]byte, len(files))
	combined := &Result{Completed: true}
	var firstErr error
	for range files {
		o := <-results
		if o.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: %s: %w", files[o.idx].Name(), o.err)
			}
			continue
		}
		parts[o.idx] = o.res.Output
		combined.Parts = append(combined.Parts, o.res.Parts...)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	output, err := kernels.Combine(op, parts)
	if err != nil {
		return nil, err
	}
	combined.Output = output
	combined.Elapsed = time.Since(start)
	return combined, nil
}

// localRange is the contiguous server-local byte range a file range
// occupies on one storage node (slot identifies the layout position, from
// which each replica's server follows).
type localRange struct {
	slot   int
	server uint32
	offset uint64
	length uint64
}

// localRanges returns each server's share of [off, off+length): one
// contiguous local range per server (pfs.Runs).
func localRanges(f *pfs.File, off, length uint64) []localRange {
	runs := pfs.Runs(f.Layout(), off, length)
	out := make([]localRange, len(runs))
	for i, r := range runs {
		out[i] = localRange{slot: r.Slot, server: r.Server, offset: r.LocalOffset, length: r.Length}
	}
	return out
}

// processRange handles one storage node's share of an active read
// according to the scheme: offload, fall back, or compute locally. When
// the file is replicated and a replica's server fails, the part retries
// on the next replica (same local offsets, by chained placement).
func (c *Client) processRange(f *pfs.File, lr localRange, op string, params []byte, traceID uint64) (PartInfo, []byte, error) {
	layout := f.Layout()
	var lastInfo PartInfo
	var lastErr error
	for r := 0; r < layout.ReplicaCount(); r++ {
		server := pfs.ReplicaServer(layout, lr.slot, r)
		info, out, err := c.processRangeReplica(f, lr, server, pfs.ReplicaHandle(f.Handle(), r), op, params, traceID)
		if err == nil {
			return info, out, nil
		}
		if r+1 < layout.ReplicaCount() {
			c.reg.Counter("asc.replica_failover").Inc()
		}
		lastInfo, lastErr = info, err
	}
	return lastInfo, nil, lastErr
}

// processRangeReplica runs one part against a specific replica.
func (c *Client) processRangeReplica(f *pfs.File, lr localRange, server uint32, handle uint64, op string, params []byte, traceID uint64) (PartInfo, []byte, error) {
	info := PartInfo{Server: server, Bytes: lr.length}
	addr, err := c.cfg.FS.DataAddr(server)
	if err != nil {
		return info, nil, err
	}
	if c.cfg.Scheme == SchemeTS {
		info.Where = OnCompute
		out, shipped, err := c.computeLocally(addr, handle, lr.offset, lr.length, op, params, nil, traceID, 0)
		info.BytesShipped = shipped
		return info, out, err
	}

	reqID := c.nextID.Add(1)
	c.register(reqID, op, lr.length, handle)
	defer c.unregister(reqID)

	c.trace.RecordEvent(trace.Event{
		Kind: trace.KindIssue, TraceID: traceID,
		ReqID: reqID, Op: op, Bytes: lr.length, Tenant: c.cfg.Tenant,
		Note: fmt.Sprintf("server %d", server),
	})
	serverStart := time.Now()
	resp, err := c.cfg.FS.Pool().Call(addr, &wire.ActiveReadReq{
		RequestID: reqID,
		Handle:    handle,
		Offset:    lr.offset,
		Length:    lr.length,
		Op:        op,
		Params:    params,
		TraceID:   traceID,
		Tenant:    c.cfg.Tenant,
	})
	info.ServerElapsed = time.Since(serverStart)
	if err != nil {
		var re *pfs.RemoteError
		if errors.As(err, &re) && re.Code == wire.StatusUnsupported {
			// Plain data server with no active runtime: degrade to TS.
			info.Where = OnCompute
			out, shipped, lerr := c.computeLocally(addr, handle, lr.offset, lr.length, op, params, nil, traceID, reqID)
			info.BytesShipped = shipped
			return info, out, lerr
		}
		return info, nil, err
	}
	ar, ok := resp.(*wire.ActiveReadResp)
	if !ok {
		return info, nil, fmt.Errorf("core: active read: unexpected response %v", resp.Type())
	}
	c.trace.RecordEvent(trace.Event{
		Kind: trace.KindRespond, TraceID: traceID,
		ReqID: reqID, Op: op, Bytes: lr.length,
		Dur:  info.ServerElapsed,
		Note: fmt.Sprintf("disposition %s", dispositionName(ar.Disposition)),
	})
	switch ar.Disposition {
	case wire.ActiveDone:
		c.reg.Counter("asc.completed_on_storage").Inc()
		info.Where = OnStorage
		info.BytesShipped = uint64(len(ar.Result))
		return info, ar.Result, nil
	case wire.ActiveRejected:
		c.reg.Counter("asc.bounced").Inc()
		info.Where = OnCompute
		out, shipped, err := c.computeLocally(addr, handle, lr.offset, lr.length, op, params, nil, traceID, reqID)
		info.BytesShipped = shipped
		return info, out, err
	case wire.ActiveInterrupted:
		c.reg.Counter("asc.migrated").Inc()
		info.Where = Migrated
		out, shipped, err := c.computeLocally(addr, handle, lr.offset+ar.Processed, lr.length-ar.Processed, op, params, ar.State, traceID, reqID)
		info.BytesShipped = shipped
		return info, out, err
	default:
		return info, nil, fmt.Errorf("core: active read: unknown disposition %d", ar.Disposition)
	}
}

// dispositionName names an ActiveReadResp disposition for trace notes.
func dispositionName(d uint8) string {
	switch d {
	case wire.ActiveDone:
		return "done"
	case wire.ActiveRejected:
		return "rejected"
	case wire.ActiveInterrupted:
		return "interrupted"
	default:
		return fmt.Sprintf("disposition(%d)", d)
	}
}

// computeLocally reads [offset, offset+length) of the server's local
// stream for handle into a buffer and then runs the kernel on the compute
// node, optionally resuming from a checkpoint. It returns the kernel
// output and the raw bytes shipped.
//
// Transfer and computation are deliberately NOT pipelined: this is the
// paper's workload model ("the workload of an application consists of two
// separate parts: computation ... and data movement"), matching what an
// MPI_File_read followed by a local kernel does — read into the user
// buffer, then process. The crossover behaviour the scheduler reasons
// about depends on these phases being serial.
func (c *Client) computeLocally(addr string, handle, offset, length uint64, op string, params, resumeState []byte, traceID, reqID uint64) ([]byte, uint64, error) {
	k, err := kernels.Start(op, params, resumeState)
	if err != nil {
		return nil, 0, err
	}
	// Phase 1: data movement, pipelined inside the phase: up to
	// WindowDepth chunk reads ride the wire concurrently, but the kernel
	// does not start until the last byte lands.
	xferStart := time.Now()
	buf := wire.GetBuf(int(length))
	defer wire.PutBuf(buf)
	n, err := c.cfg.FS.Pool().ReadWindowed(addr, handle, buf, offset, c.cfg.WindowDepth, c.cfg.ChunkSize)
	done := uint64(n)
	c.reg.Counter("asc.bytes_shipped").Add(int64(n))
	if err != nil {
		return nil, done, fmt.Errorf("core: local compute read: %w", err)
	}
	c.trace.RecordEvent(trace.Event{
		Kind: trace.KindTransfer, TraceID: traceID,
		ReqID: reqID, Op: op, Bytes: done,
		Phase: trace.PhaseTransfer, Dur: time.Since(xferStart),
	})
	// Phase 2: computation.
	start := time.Now()
	var processed uint64
	for processed < length {
		n := uint64(c.cfg.ChunkSize)
		if length-processed < n {
			n = length - processed
		}
		if err := k.Process(buf[processed : processed+n]); err != nil {
			return nil, done, err
		}
		processed += n
		if c.cfg.Pace {
			c.pace(op, processed, start)
		}
	}
	out, err := k.Result()
	if err != nil {
		return nil, done, err
	}
	c.reg.Counter("asc.completed_on_compute").Inc()
	note := "computed on client"
	if len(resumeState) > 0 {
		note = "resumed from checkpoint on client"
	}
	c.trace.RecordEvent(trace.Event{
		Kind: trace.KindComplete, TraceID: traceID,
		ReqID: reqID, Op: op, Bytes: length,
		Phase: trace.PhaseKernel, Dur: time.Since(start),
		Note: note,
	})
	return out, done, nil
}

// pace mirrors the runtime's pacing for client-side kernel execution.
func (c *Client) pace(op string, done uint64, start time.Time) {
	rate := kernels.RateFor(op)
	if rate <= 0 {
		return
	}
	want := time.Duration(float64(done) / rate * float64(time.Second))
	if elapsed := time.Since(start); want > elapsed {
		time.Sleep(want - elapsed)
	}
}

func (c *Client) register(id uint64, op string, bytes, handle uint64) {
	c.mu.Lock()
	c.pending[id] = pendingReq{op: op, bytes: bytes, handle: handle}
	c.mu.Unlock()
}

func (c *Client) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// Pending reports how many active requests this client is waiting on.
func (c *Client) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// dropParts removes stream handle from the server of every range, in
// parallel, ignoring errors.
func (c *Client) dropParts(handle uint64, ranges []localRange) {
	var wg sync.WaitGroup
	for _, lr := range ranges {
		addr, err := c.cfg.FS.DataAddr(lr.server)
		if err != nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.cfg.FS.Pool().Call(addr, &wire.TruncReq{Handle: handle, Remove: true, Tenant: c.cfg.Tenant}) //nolint:errcheck // best effort
		}()
	}
	wg.Wait()
}

// TransformResult reports one completed active transform.
type TransformResult struct {
	// BytesWritten is the total output written across storage nodes.
	BytesWritten uint64
	// Parts records per-node input sizes.
	Parts   []PartInfo
	Elapsed time.Duration
}

// Transform runs a size-preserving operation over all of src on its
// storage nodes, writing the output to a freshly created file dstName
// with the same stripe layout — active write-back: neither the input nor
// the output ever crosses the network. Only operations with
// h(x) = x (e.g. full-image gaussian2d) qualify; others return an error.
// A transform that fails after its parts went out first removes the
// destination's stripes from every server it sent a part to (best
// effort): the destination's recorded size is still 0, so a later Remove
// of it sweeps nothing.
func (c *Client) Transform(src *pfs.File, dstName, op string, params []byte) (*pfs.File, *TransformResult, error) {
	k, err := kernels.Start(op, params, nil)
	if err != nil {
		return nil, nil, err
	}
	for _, probe := range []uint64{1 << 12, 1 << 20, 3 << 19} {
		if k.ResultSize(probe) != probe {
			return nil, nil, fmt.Errorf("core: transform requires a size-preserving operation; %q maps %d bytes to %d",
				op, probe, k.ResultSize(probe))
		}
	}
	size := src.Size()
	if size == 0 {
		return nil, nil, fmt.Errorf("core: transform of empty file %q", src.Name())
	}
	layout := src.Layout()
	if layout.ReplicaCount() > 1 {
		return nil, nil, fmt.Errorf("core: transform of replicated file %q is not supported "+
			"(the output would exist on one replica only)", src.Name())
	}
	dst, err := c.cfg.FS.CreatePlaced(dstName, layout.StripeSize, layout.Servers)
	if err != nil {
		return nil, nil, err
	}

	traceID := c.mintTraceID()
	start := time.Now()
	ranges := localRanges(src, 0, size)
	type partOut struct {
		idx     int
		info    PartInfo
		written uint64
		err     error
	}
	results := make(chan partOut, len(ranges))
	for i, lr := range ranges {
		go func(i int, lr localRange) {
			po := partOut{idx: i, info: PartInfo{Server: lr.server, Bytes: lr.length, Where: OnStorage}}
			addr, err := c.cfg.FS.DataAddr(lr.server)
			if err != nil {
				po.err = err
				results <- po
				return
			}
			resp, err := c.cfg.FS.Pool().Call(addr, &wire.TransformReq{
				RequestID: c.nextID.Add(1),
				SrcHandle: src.Handle(),
				Offset:    lr.offset,
				Length:    lr.length,
				Op:        op,
				Params:    params,
				DstHandle: dst.Handle(),
				DstOffset: lr.offset, // identical layouts: local offsets line up
				TraceID:   traceID,
				Tenant:    c.cfg.Tenant,
			})
			if err != nil {
				po.err = err
				results <- po
				return
			}
			tr, ok := resp.(*wire.TransformResp)
			if !ok {
				po.err = fmt.Errorf("core: transform: unexpected response %v", resp.Type())
				results <- po
				return
			}
			po.written = tr.Written
			results <- po
		}(i, lr)
	}
	res := &TransformResult{Parts: make([]PartInfo, len(ranges))}
	var firstErr error
	for range ranges {
		po := <-results
		if po.err != nil && firstErr == nil {
			firstErr = po.err
		}
		res.Parts[po.idx] = po.info
		res.BytesWritten += po.written
	}
	if firstErr == nil {
		firstErr = dst.SetSize(size)
	}
	if firstErr != nil {
		c.dropParts(dst.Handle(), ranges)
		return nil, nil, firstErr
	}
	res.Elapsed = time.Since(start)
	c.reg.Counter("asc.transforms").Inc()
	return dst, res, nil
}
