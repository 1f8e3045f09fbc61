package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dosas/internal/core"
	"dosas/internal/pfs"
	"dosas/internal/wire"
)

// Span layers of the traced pass, named after the module whose time they
// hold. A span is recorded from the benchmark's own shims around the
// calls into each layer; nothing inside the program is edited.
const (
	layerClient    = "dosas.client_call" // root: the public API call
	layerDataSrv   = "pfs.data_handle"   // DataServer.Handle
	layerMetaSrv   = "pfs.meta_handle"   // MetaServer.Handle
	layerStoreRead = "pfs.store_read"    // Store.ReadAt / RangeReader.ReadRange
	layerStoreWr   = "pfs.store_write"   // Store.WriteAt
	layerRespWrite = "pfs.resp_write"    // Handle return → PostWrite
	layerRuntime   = "core.runtime"      // Runtime.HandleActive
	layerRPC       = "pfs.rpc"           // root time no server span covers
)

// layerDepth orders the server-side layers deepest first. At any instant
// of an operation its wall time belongs to the deepest layer with a span
// open — a span's self time is its duration minus the union of its
// children — so the layers of one operation add up to its root span.
var layerDepth = []string{layerStoreRead, layerStoreWr, layerRuntime, layerDataSrv, layerMetaSrv, layerRespWrite}

// span is one timed call into a layer. Times are ns since the tracer's
// epoch; Op is the root operation that caused it.
type span struct {
	Name  string `json:"name"`
	Node  string `json:"node,omitempty"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	Op    uint64 `json:"op"`
	// Parent is the index, within the operation's spans as written out,
	// of the innermost span that contains this one; -1 for the root.
	Parent int `json:"parent"`
}

// tracer collects spans in memory for one traced pass. Load streams are
// sequential (closed loop), so a server-side span belongs to the current
// operation of the stream that sent it; streams are told apart by the
// tenant their requests carry, and store calls by the file handle the
// request named.
type tracer struct {
	epoch   time.Time
	tenants map[string]int // tenant → stream; absent means stream 0
	on      atomic.Bool
	nextOp  atomic.Uint64
	cur     []atomic.Uint64 // current root operation of each stream
	handles sync.Map        // file handle → stream

	mu    sync.Mutex
	spans []span
}

// newTracer returns a tracer for the given stream tenants (stream i's
// requests carry tenants[i]); recording starts when on is set.
func newTracer(tenants []string) *tracer {
	t := &tracer{epoch: time.Now(), tenants: make(map[string]int), cur: make([]atomic.Uint64, max(1, len(tenants)))}
	for i, name := range tenants {
		t.tenants[name] = i
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(name, node string, start, end int64, op uint64) {
	if !t.on.Load() || op == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Node: node, Start: start, End: end, Op: op})
	t.mu.Unlock()
}

// root brackets one public API call of a stream as a root span.
func (t *tracer) root(stream int, op func()) {
	id := t.nextOp.Add(1)
	t.cur[stream].Store(id)
	start := t.now()
	op()
	t.add(layerClient, "", start, t.now(), id)
}

// opOf resolves the operation a request belongs to from the tenant and
// file handle it carries, remembering the handle for the store shim.
func (t *tracer) opOf(m wire.Message) uint64 {
	var tenant string
	var handle uint64
	switch r := m.(type) {
	case *wire.ReadReq:
		tenant, handle = r.Tenant, r.Handle
	case *wire.WriteReq:
		tenant, handle = r.Tenant, r.Handle
	case *wire.TruncReq:
		tenant, handle = r.Tenant, r.Handle
	case *wire.ActiveReadReq:
		tenant, handle = r.Tenant, r.Handle
	default:
		return t.cur[0].Load()
	}
	stream := t.tenants[tenant]
	t.handles.Store(handle, stream)
	return t.cur[stream].Load()
}

func (t *tracer) opOfHandle(handle uint64) uint64 {
	if s, ok := t.handles.Load(handle); ok {
		return t.cur[s.(int)].Load()
	}
	return t.cur[0].Load()
}

// ---- shims ----

// handlerShim times Handle and, through PostWrite, the response write
// that follows it. It always implements pfs.PostWriter and forwards when
// the wrapped handler does.
type handlerShim struct {
	tr          *tracer
	node, layer string
	inner       pfs.Handler
	post        pfs.PostWriter
	pending     sync.Map // request → handled
}

type handled struct {
	at int64
	op uint64
}

func newHandlerShim(tr *tracer, node, layer string, inner pfs.Handler) *handlerShim {
	h := &handlerShim{tr: tr, node: node, layer: layer, inner: inner}
	h.post, _ = inner.(pfs.PostWriter)
	return h
}

func (h *handlerShim) Handle(m wire.Message) (wire.Message, error) {
	op := h.tr.opOf(m)
	start := h.tr.now()
	resp, err := h.inner.Handle(m)
	end := h.tr.now()
	h.tr.add(h.layer, h.node, start, end, op)
	h.pending.Store(m, handled{at: end, op: op})
	return resp, err
}

func (h *handlerShim) PostWrite(req, resp wire.Message) {
	if v, ok := h.pending.LoadAndDelete(req); ok {
		hd := v.(handled)
		h.tr.add(layerRespWrite, h.node, hd.at, h.tr.now(), hd.op)
	}
	if h.post != nil {
		h.post.PostWrite(req, resp)
	}
}

// storeShim times the data calls of a pfs.Store.
type storeShim struct {
	pfs.Store
	tr   *tracer
	node string
}

func (s *storeShim) ReadAt(handle uint64, p []byte, off uint64) (int, error) {
	start := s.tr.now()
	n, err := s.Store.ReadAt(handle, p, off)
	s.tr.add(layerStoreRead, s.node, start, s.tr.now(), s.tr.opOfHandle(handle))
	return n, err
}

func (s *storeShim) WriteAt(handle uint64, p []byte, off uint64) (int, error) {
	start := s.tr.now()
	n, err := s.Store.WriteAt(handle, p, off)
	s.tr.add(layerStoreWr, s.node, start, s.tr.now(), s.tr.opOfHandle(handle))
	return n, err
}

// rangeStoreShim forwards pfs.RangeReader too, so the data server keeps
// serving bulk reads by reference (sendfile) with the shim installed.
type rangeStoreShim struct {
	storeShim
	rr pfs.RangeReader
}

func (s *rangeStoreShim) ReadRange(handle uint64, off, n uint64) (wire.Payload, error) {
	start := s.tr.now()
	p, err := s.rr.ReadRange(handle, off, n)
	s.tr.add(layerStoreRead, s.node, start, s.tr.now(), s.tr.opOfHandle(handle))
	return p, err
}

// wrapStore returns st behind a timing shim that implements
// pfs.RangeReader exactly when st does.
func wrapStore(tr *tracer, node string, st pfs.Store) pfs.Store {
	shim := storeShim{Store: st, tr: tr, node: node}
	if rr, ok := st.(pfs.RangeReader); ok {
		return &rangeStoreShim{storeShim: shim, rr: rr}
	}
	return &shim
}

// runtimeShim times HandleActive. Embedding the runtime keeps the other
// pfs.ActiveHandler methods and the optional ones the data server looks
// for (QoSStats, HealthChecks, ModeName).
type runtimeShim struct {
	*core.Runtime
	tr   *tracer
	node string
}

func (r *runtimeShim) HandleActive(req *wire.ActiveReadReq) (*wire.ActiveReadResp, error) {
	op := r.tr.opOf(req)
	start := r.tr.now()
	resp, err := r.Runtime.HandleActive(req)
	r.tr.add(layerRuntime, r.node, start, r.tr.now(), op)
	return resp, err
}

// ---- analysis ----

// interval is a half-open [lo, hi) stretch of time.
type interval struct{ lo, hi int64 }

// union merges ivs into sorted disjoint intervals.
func union(ivs []interval) []interval {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(a, b int) bool { return s[a].lo < s[b].lo })
	var out []interval
	for _, iv := range s {
		if iv.hi <= iv.lo {
			continue
		}
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, iv.hi)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// subtract removes the sorted disjoint intervals in b from those in a.
func subtract(a, b []interval) []interval {
	var out []interval
	j := 0
	for _, iv := range a {
		lo := iv.lo
		for j < len(b) && b[j].hi <= lo {
			j++
		}
		for k := j; k < len(b) && b[k].lo < iv.hi; k++ {
			if b[k].lo > lo {
				out = append(out, interval{lo, b[k].lo})
			}
			lo = max(lo, b[k].hi)
		}
		if lo < iv.hi {
			out = append(out, interval{lo, iv.hi})
		}
	}
	return out
}

func measure(ivs []interval) int64 {
	var n int64
	for _, iv := range ivs {
		n += iv.hi - iv.lo
	}
	return n
}

// clip returns the parts of the spans that lie inside within.
func clip(spans []span, within interval) []interval {
	out := make([]interval, 0, len(spans))
	for _, s := range spans {
		out = append(out, interval{max(s.Start, within.lo), min(s.End, within.hi)})
	}
	return out
}

// layerTimes splits one operation's root span among the layers: each
// layer gets the time its spans cover that no deeper layer covers, and
// layerRPC gets what no server-side span covers. The values add up to the
// root span's duration exactly.
func layerTimes(root span, spans []span) map[string]int64 {
	whole := interval{root.Start, root.End}
	byLayer := make(map[string][]span)
	for _, s := range spans {
		byLayer[s.Name] = append(byLayer[s.Name], s)
	}
	out := make(map[string]int64)
	var covered []interval
	for _, layer := range layerDepth {
		ivs := union(clip(byLayer[layer], whole))
		out[layer] = measure(subtract(ivs, covered))
		covered = union(append(covered, ivs...))
	}
	out[layerRPC] = root.End - root.Start - measure(covered)
	return out
}

// byOp groups the recorded spans by root operation, dropping operations
// whose root span was not recorded (still in flight when tracing stopped).
func (t *tracer) byOp() (roots []span, children map[uint64][]span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children = make(map[uint64][]span)
	for _, s := range t.spans {
		if s.Name == layerClient {
			roots = append(roots, s)
		} else {
			children[s.Op] = append(children[s.Op], s)
		}
	}
	return roots, children
}

// layerTotals sums layerTimes over every traced operation; totals[layerClient]
// is the sum of the root spans.
func (t *tracer) layerTotals() (ops int, totals map[string]int64) {
	roots, children := t.byOp()
	totals = make(map[string]int64)
	for _, r := range roots {
		totals[layerClient] += r.End - r.Start
		for layer, ns := range layerTimes(r, children[r.Op]) {
			totals[layer] += ns
		}
	}
	return len(roots), totals
}

// traceFileOps caps how many operations a trace file holds: the file is
// for reading one request's path, not for statistics.
const traceFileOps = 100

// writeFile writes the spans of the first traceFileOps operations as
// JSON, each operation's spans together with parents resolved.
func (t *tracer) writeFile(path string) error {
	roots, children := t.byOp()
	if len(roots) > traceFileOps {
		roots = roots[:traceFileOps]
	}
	out := make([]span, 0, len(roots)*4)
	for _, r := range roots {
		base := len(out)
		r.Parent = -1
		group := append([]span{r}, children[r.Op]...)
		for i := 1; i < len(group); i++ {
			group[i].Parent = base + innermost(group, i)
		}
		out = append(out, group...)
	}
	blob, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// innermost returns the index in group of the shortest span on the same
// node (or the root, group[0]) that contains group[i].
func innermost(group []span, i int) int {
	s, best := group[i], 0
	for j := 1; j < len(group); j++ {
		p := group[j]
		if j == i || p.Node != s.Node || p.Start > s.Start || p.End < s.End || p.Name == s.Name {
			continue
		}
		if best == 0 || p.End-p.Start < group[best].End-group[best].Start {
			best = j
		}
	}
	return best
}
