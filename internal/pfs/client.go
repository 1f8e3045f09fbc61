package pfs

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dosas/internal/transport"
	"dosas/internal/wire"
)

// DefaultTransferChunk bounds a single Read/Write RPC so bulk transfers stay well
// under the wire frame limit and interleave fairly on shared links.
const DefaultTransferChunk = 4 << 20

// ClientConfig tells a client where the cluster lives.
type ClientConfig struct {
	// Net is the transport to dial through.
	Net transport.Network
	// MetaAddr is the metadata server's address.
	MetaAddr string
	// DataAddrs maps data-server indices (as used in layouts) to
	// addresses. Order matters and must match the cluster configuration.
	DataAddrs []string
	// WindowDepth is how many chunk requests bulk transfers keep in
	// flight per server connection. 0 takes DefaultWindowDepth; 1 is the
	// serial request/response loop.
	WindowDepth int
	// TransferChunk bounds a single Read/Write RPC in bytes. 0 takes the
	// 4 MiB default; values are clamped under the wire frame limit.
	TransferChunk int
	// Tenant identifies this client's workload on every data-path request
	// (reads, writes, trunc/remove), so storage nodes attribute bytes and
	// ops to it. Empty means the default tenant and keeps the wire format
	// byte-identical to pre-tenant clients.
	Tenant string
	// HedgeAfter enables hedged reads on replicated files: when the
	// fastest replica has not finished a server's run within the delay, the
	// read is duplicated to the next-best replica and the loser is
	// cancelled. The configured value is the fallback trigger, used until
	// the per-server latency tracker has enough samples to derive a
	// quantile-based one (≈p95 of observed chunk latency). Zero disables
	// hedging.
	HedgeAfter time.Duration
}

// Client is the file system client: it resolves names at the metadata
// server and moves stripe data directly to/from the data servers.
type Client struct {
	cfg  ClientConfig
	pool *Pool
}

// NewClient builds a client for the given cluster.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("%w: client needs a transport", ErrInvalid)
	}
	if cfg.MetaAddr == "" {
		return nil, fmt.Errorf("%w: client needs a metadata address", ErrInvalid)
	}
	if len(cfg.DataAddrs) == 0 {
		return nil, fmt.Errorf("%w: client needs data server addresses", ErrInvalid)
	}
	pool := NewPool(cfg.Net)
	pool.SetTenant(cfg.Tenant)
	return &Client{cfg: cfg, pool: pool}, nil
}

// Close releases pooled connections.
func (c *Client) Close() { c.pool.Close() }

// Pool exposes the client's connection pool so higher layers (the active
// storage client) can issue their own RPCs over it.
func (c *Client) Pool() *Pool { return c.pool }

// MetaAddr returns the metadata server's address, for direct calls
// through Pool (health sweeps, series fetches).
func (c *Client) MetaAddr() string { return c.cfg.MetaAddr }

// DataAddr returns the address of data server idx.
func (c *Client) DataAddr(idx uint32) (string, error) {
	if int(idx) >= len(c.cfg.DataAddrs) {
		return "", fmt.Errorf("%w: data server index %d out of range", ErrInvalid, idx)
	}
	return c.cfg.DataAddrs[idx], nil
}

// NumDataServers returns the size of the configured data-server table.
func (c *Client) NumDataServers() int { return len(c.cfg.DataAddrs) }

// Create makes a new file. stripeSize and width of 0 take cluster defaults.
func (c *Client) Create(name string, stripeSize uint32, width int) (*File, error) {
	return c.create(&wire.CreateReq{Name: name, StripeSize: stripeSize, Width: uint32(width)})
}

// CreateReplicated makes a new file keeping `replicas` copies of every
// stripe on distinct servers (chained placement). Reads and active reads
// fail over to surviving replicas transparently; writes go to all copies.
func (c *Client) CreateReplicated(name string, stripeSize uint32, width, replicas int) (*File, error) {
	return c.create(&wire.CreateReq{
		Name: name, StripeSize: stripeSize, Width: uint32(width), Replicas: uint8(replicas),
	})
}

// CreatePlaced makes a new file striped over exactly the given data
// servers, in order — used to co-locate derived files with their source.
func (c *Client) CreatePlaced(name string, stripeSize uint32, servers []uint32) (*File, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("%w: empty placement", ErrInvalid)
	}
	return c.create(&wire.CreateReq{
		Name: name, StripeSize: stripeSize, Placement: append([]uint32(nil), servers...),
	})
}

func (c *Client) create(req *wire.CreateReq) (*File, error) {
	resp, err := c.pool.Call(c.cfg.MetaAddr, req)
	if err != nil {
		return nil, err
	}
	cr, ok := resp.(*wire.CreateResp)
	if !ok {
		return nil, fmt.Errorf("pfs: create: unexpected response %v", resp.Type())
	}
	return &File{c: c, name: req.Name, handle: cr.Handle, layout: cr.Layout}, nil
}

// SetSize records size at the metadata server (max semantics) and updates
// the local view. Used by layers that write server-local streams directly
// (active transforms) rather than through WriteAt.
func (f *File) SetSize(size uint64) error {
	resp, err := f.c.pool.Call(f.c.cfg.MetaAddr, &wire.SetSizeReq{Handle: f.handle, Size: size})
	if err != nil {
		return err
	}
	sr, ok := resp.(*wire.SetSizeResp)
	if !ok {
		return fmt.Errorf("pfs: setsize: unexpected response %v", resp.Type())
	}
	f.mu.Lock()
	if sr.Size > f.size {
		f.size = sr.Size
	}
	f.mu.Unlock()
	return nil
}

// Open looks an existing file up by name.
func (c *Client) Open(name string) (*File, error) {
	resp, err := c.pool.Call(c.cfg.MetaAddr, &wire.OpenReq{Name: name, Tenant: c.cfg.Tenant})
	if err != nil {
		return nil, err
	}
	or, ok := resp.(*wire.OpenResp)
	if !ok {
		return nil, fmt.Errorf("pfs: open: unexpected response %v", resp.Type())
	}
	return &File{c: c, name: name, handle: or.Handle, size: or.Size, layout: or.Layout}, nil
}

// Stat returns the metadata record for name.
func (c *Client) Stat(name string) (*wire.StatResp, error) {
	resp, err := c.pool.Call(c.cfg.MetaAddr, &wire.StatReq{Name: name, Tenant: c.cfg.Tenant})
	if err != nil {
		return nil, err
	}
	sr, ok := resp.(*wire.StatResp)
	if !ok {
		return nil, fmt.Errorf("pfs: stat: unexpected response %v", resp.Type())
	}
	return sr, nil
}

// Remove deletes a file: the name at the metadata server, then the
// stripes below the size that server recorded, on every replica. Only the
// (server, replica) pairs whose slots hold a byte below that size are
// swept, so a never-written file costs the one metadata round trip. Every
// byte a WriteAt acknowledged lies below the recorded size, since WriteAt
// records the size before it returns; bytes of a write that was never
// acknowledged (a writer that died before its size update) may stay
// behind, as stripes on a data server that is down during Remove do.
func (c *Client) Remove(name string) error {
	resp, err := c.pool.Call(c.cfg.MetaAddr, &wire.RemoveReq{Name: name})
	if err != nil {
		return err
	}
	rr, ok := resp.(*wire.RemoveResp)
	if !ok {
		return fmt.Errorf("pfs: remove: unexpected response %v", resp.Type())
	}
	// Best-effort stripe cleanup; the namespace entry is already gone.
	lay, runs := rr.Layout, Runs(rr.Layout, 0, rr.Size)
	reps := lay.ReplicaCount()
	fanOut(len(runs)*reps, func(i int) error { //nolint:errcheck // best effort
		run, r := runs[i/reps], i%reps
		addr, err := c.DataAddr(ReplicaServer(lay, run.Slot, r))
		if err == nil {
			_, err = c.pool.Call(addr, &wire.TruncReq{Handle: ReplicaHandle(rr.Handle, r), Remove: true, Tenant: c.cfg.Tenant})
		}
		return err
	})
	return nil
}

// List returns names with the given prefix in lexical order.
func (c *Client) List(prefix string) ([]string, error) {
	resp, err := c.pool.Call(c.cfg.MetaAddr, &wire.ListReq{Prefix: prefix, Tenant: c.cfg.Tenant})
	if err != nil {
		return nil, err
	}
	lr, ok := resp.(*wire.ListResp)
	if !ok {
		return nil, fmt.Errorf("pfs: list: unexpected response %v", resp.Type())
	}
	return lr.Names, nil
}

// File is an open striped file.
type File struct {
	c      *Client
	name   string
	handle uint64
	layout wire.Layout

	mu   sync.Mutex
	size uint64
}

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// Handle returns the file's cluster-wide handle.
func (f *File) Handle() uint64 { return f.handle }

// Layout returns the file's stripe layout.
func (f *File) Layout() wire.Layout { return f.layout }

// Size returns the file size as known to this client (updated by writes
// through this File and by Open).
func (f *File) Size() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// fanOut runs fn(0) … fn(n-1) — concurrently when n > 1 — and returns the
// first error.
func fanOut(n int, fn func(i int) error) error {
	if n == 1 {
		return fn(0)
	}
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) { errs <- fn(i) }(i)
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// eachRun applies fn to every server run of the file range [off,
// off+length), in parallel.
func (f *File) eachRun(off, length uint64, fn func(Run) error) error {
	runs := Runs(f.layout, off, length)
	return fanOut(len(runs), func(i int) error { return fn(runs[i]) })
}

// ReadAt fills p from the file at off: one windowed read per data server
// holding part of the range, in parallel, each scattered straight into
// its stripes of p. It returns the number of bytes read; reading past the
// end returns a short count.
func (f *File) ReadAt(p []byte, off uint64) (int, error) {
	size := f.Size()
	if off >= size {
		return 0, nil
	}
	if max := size - off; uint64(len(p)) > max {
		p = p[:max]
	}
	err := f.eachRun(off, uint64(len(p)), func(run Run) error {
		return f.readRun(run.view(f.layout, p, off), run)
	})
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

// readRun pulls one server's run, chunked under the frame limit.
// Replicas are tried in expected-latency order (straggler-aware: the
// pool's tracker scores each candidate server for this request size,
// unknown and long-idle servers scoring best), failing over to the next
// on error. With hedging enabled, the second-best replica is raced
// against a primary that blows through its latency budget.
func (f *File) readRun(dst strided, run Run) error {
	// The tracker is fed per chunk request, so replicas are scored — and
	// the hedge delay derived — for the size the window will ask for.
	depth, chunk := normWindow(f.c.cfg.WindowDepth, f.c.cfg.TransferChunk)
	req := min(dst.n, chunk)
	order := f.replicaOrder(run, req)
	if f.c.cfg.HedgeAfter > 0 && len(order) > 1 {
		// A run longer than one window gets that budget once per window.
		windows := (dst.n + depth*chunk - 1) / (depth * chunk)
		return f.readRunHedged(dst, run, order, req, windows)
	}
	return f.readFailover(dst, run, order, runFailures{})
}

// replicaOrder returns the run's replica indices sorted by the latency
// tracker's score for this request size (ties keep layout order, so an
// unmeasured cluster behaves exactly as before).
func (f *File) replicaOrder(run Run, bytes int) []int {
	reps := f.layout.ReplicaCount()
	order := make([]int, reps)
	for i := range order {
		order[i] = i
	}
	if reps == 1 {
		return order
	}
	lat := f.c.pool.Latency()
	score := make([]float64, reps)
	for i := range score {
		addr, err := f.c.DataAddr(ReplicaServer(f.layout, run.Slot, i))
		if err == nil {
			score[i] = lat.Score(addr, bytes)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return score[order[a]] < score[order[b]] })
	return order
}

// attempt is the outcome of reading a run from one replica: the bytes
// delivered into the destination, and why it stopped short of all of them.
type attempt struct {
	n   int
	err error
}

// runFailures folds the failed attempts at one run. The run is already
// clamped to the file size, so a local stream that ends inside it
// (errLocalEOF) is either a hole — a stripe never written — or a replica
// that is behind. It therefore counts as a failure while another replica
// may still hold the bytes; only when every replica's stream ends short
// is the rest, past the longest of them, a hole.
type runFailures struct {
	held int   // longest short stream: dst[:held] came from replicas holding it
	hard error // last failure that was not a short stream
}

func (rf *runFailures) add(a attempt) {
	if errors.Is(a.err, errLocalEOF) {
		rf.held = max(rf.held, a.n)
	} else {
		rf.hard = a.err
	}
}

// readRunReplica reads the run from replica r through the sliding-window
// path, keeping WindowDepth chunks in flight. Chained placement
// guarantees the replica's local offsets equal the primary's. ctl, when
// non-nil, makes the read cancellable (hedging).
func (f *File) readRunReplica(dst strided, run Run, r int, ctl *ReadControl) attempt {
	addr, err := f.c.DataAddr(ReplicaServer(f.layout, run.Slot, r))
	if err != nil {
		return attempt{0, err}
	}
	n, err := f.c.pool.readWindowed(addr, ReplicaHandle(f.handle, r), dst, run.LocalOffset,
		f.c.cfg.WindowDepth, f.c.cfg.TransferChunk, ctl)
	if err != nil {
		err = fmt.Errorf("pfs: read replica %d: %w", r, err)
	}
	return attempt{n, err}
}

// readFailover settles a run whose attempts so far all failed: it tries
// the replicas in rest until one delivers the whole run. If none does,
// the run reads as far as the longest stream went and zeros beyond — but
// only when every replica answered and merely ended short; one that
// failed outright might hold the missing bytes, so its error stands.
func (f *File) readFailover(dst strided, run Run, rest []int, failed runFailures) error {
	for _, r := range rest {
		a := f.readRunReplica(dst, run, r, nil)
		if a.err == nil {
			return nil
		}
		failed.add(a)
	}
	if failed.hard != nil {
		return failed.hard
	}
	dst.slice(failed.held, dst.n-failed.held).clear()
	return nil
}

// readRunHedged reads the run from the best-scored replica, and — if that
// replica has not delivered within the hedge delay (the tracker's budget
// for a req-byte request, once per window of the run) — duplicates the read
// to the second-best into one local-contiguous scratch buffer, cancelling
// whichever copy loses. dst is only ever written by the primary read and
// by the scatter of scratch after the primary goroutine has exited, so a
// losing primary's zero-filled cancelled bytes can never clobber winning
// data.
func (f *File) readRunHedged(dst strided, run Run, order []int, req, windows int) error {
	pool := f.c.pool
	prim, hedge := order[0], order[1]
	primAddr, perr := f.c.DataAddr(ReplicaServer(f.layout, run.Slot, prim))
	hedgeAddr, herr := f.c.DataAddr(ReplicaServer(f.layout, run.Slot, hedge))
	if perr != nil || herr != nil {
		return f.readFailover(dst, run, order, runFailures{}) // nothing to race
	}
	primCtl := pool.NewReadControl(primAddr)
	primDone := make(chan attempt, 1)
	go func() { primDone <- f.readRunReplica(dst, run, prim, primCtl) }()

	delay := pool.Latency().HedgeDelay(primAddr, req, f.c.cfg.HedgeAfter)
	timer := time.NewTimer(delay * time.Duration(windows))
	defer timer.Stop()
	var p, h attempt
	var failed runFailures
	select {
	case p = <-primDone:
		if p.err == nil {
			return nil
		}
		failed.add(p)
		return f.readFailover(dst, run, order[1:], failed)
	case <-timer.C:
	}

	// Primary is straggling: race the hedge replica into scratch space.
	pool.reg.Counter("pool.hedge.launched").Inc()
	scratch := wire.GetBuf(dst.n)
	hedgeCtl := pool.NewReadControl(hedgeAddr)
	hedgeDone := make(chan attempt, 1)
	go func() {
		a := f.readRunReplica(contig(scratch), run, hedge, hedgeCtl)
		pool.reg.Counter("pool.hedge.bytes").Add(int64(a.n))
		hedgeDone <- a
	}()

	select {
	case p = <-primDone:
		if p.err == nil {
			// Primary won after all: reclaim the hedge's bandwidth and
			// recycle its scratch once its window loop has let go of it.
			pool.reg.Counter("pool.hedge.cancelled").Inc()
			hedgeCtl.Cancel()
			go func() {
				<-hedgeDone
				wire.PutBuf(scratch)
			}()
			return nil
		}
		// Primary failed; the hedge is now the only copy running.
		h = <-hedgeDone
	case h = <-hedgeDone:
		if h.err == nil {
			// Hedge won: cancel the primary, and wait for its goroutine to
			// stop touching dst before the winning bytes go in below.
			primCtl.Cancel()
		}
		// A failed hedge leaves the primary running.
		p = <-primDone
	}
	// Both goroutines have exited: dst and scratch are ours alone.
	defer wire.PutBuf(scratch)
	if h.err == nil {
		dst.copyFrom(scratch)
		pool.reg.Counter("pool.hedge.wins").Inc()
		return nil
	}
	if p.err == nil {
		return nil
	}
	// Both failed. What a short hedge stream holds beyond the primary's
	// goes into dst, so dst[:held] stays bytes some replica holds.
	failed.add(p)
	if errors.Is(h.err, errLocalEOF) && h.n > failed.held {
		dst.slice(0, h.n).copyFrom(scratch)
	}
	failed.add(h)
	return f.readFailover(dst, run, order[2:], failed)
}

// WriteAt stores p at off — one windowed write per data server (and
// replica) holding part of the range, in parallel, each gathered from its
// stripes of p — then records any size extension at the metadata server.
func (f *File) WriteAt(p []byte, off uint64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	err := f.eachRun(off, uint64(len(p)), func(run Run) error {
		return f.writeRun(run.view(f.layout, p, off), run)
	})
	if err != nil {
		return 0, err
	}
	// The local size grows only once the metadata server has recorded the
	// new end, so a write after a failed size update records it again:
	// every byte WriteAt acknowledges lies below the recorded size.
	end := off + uint64(len(p))
	f.mu.Lock()
	grew := end > f.size
	f.mu.Unlock()
	if grew {
		if err := f.SetSize(end); err != nil {
			return len(p), err
		}
	}
	return len(p), nil
}

// writeRun stores one run on every replica. Writes require all replicas
// reachable; degraded writes would silently diverge the copies.
func (f *File) writeRun(src strided, run Run) error {
	return fanOut(f.layout.ReplicaCount(), func(r int) error {
		return f.writeRunReplica(src, run, r)
	})
}

// writeRunReplica stores one run on replica r through the sliding-window
// path.
func (f *File) writeRunReplica(src strided, run Run, r int) error {
	addr, err := f.c.DataAddr(ReplicaServer(f.layout, run.Slot, r))
	if err != nil {
		return err
	}
	_, err = f.c.pool.writeWindowed(addr, ReplicaHandle(f.handle, r), src, run.LocalOffset,
		f.c.cfg.WindowDepth, f.c.cfg.TransferChunk)
	if err != nil {
		return fmt.Errorf("pfs: write replica %d: %w", r, err)
	}
	return nil
}

// ReadAll reads the whole file.
func (f *File) ReadAll() ([]byte, error) {
	buf := make([]byte, f.Size())
	n, err := f.ReadAt(buf, 0)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}
