package pfs

// Admission QoS for the serving path. PR 8 attributed resource usage to
// tenants; this gate enforces it. Every data/metadata request passes
// through a QoSGate before touching the store: the gate holds a bounded
// number of service slots and admits queued requests in weighted
// deficit-round-robin order across tenants (internal/ioqueue), so an
// aggressor tenant's flood queues against its own token bucket instead
// of shoving a victim's requests arbitrarily deep into a FIFO. The gate
// is work-conserving — with one tenant queued it only bounds
// concurrency, exactly like the semaphore it replaces.
//
// The gate's queue is the storage node's only one. It feeds two pools:
// I/O slots serve the Normal and Meta classes, and kernel cores, which the
// active runtime asks for when it attaches (ServeActive), serve the Active
// class. Each pool pops only its own classes, so a pool that is full never
// holds up the other.
//
// The gate runs no goroutine. A request is admitted on its caller's
// goroutine when its pool has a slot free, and queues otherwise; a request
// that finishes hands its slot straight to the next one its pool's classes
// elect, in WDRR order, or frees it when none is queued. So a request
// queues only while every slot of its pool is taken, and a free slot means
// nothing of its pool's classes is queued: no inline admission overtakes a
// queued one. One mutex guards the queue and both pools.

import (
	"sync"

	"dosas/internal/ioqueue"
	"dosas/internal/tenant"
)

// DefaultQoSSlots is how many admitted requests a gate lets run at once
// when QoSConfig.Slots is zero. It intentionally mirrors the mux
// framing's per-connection handler concurrency: the gate shapes order,
// the slots bound parallelism.
const DefaultQoSSlots = 16

// QoSConfig configures a server's admission gate.
type QoSConfig struct {
	// Slots bounds concurrently admitted requests (0 = DefaultQoSSlots).
	Slots int
	// Quantum is the per-round WDRR credit in bytes for a weight-1
	// tenant (0 = ioqueue.DefaultQuantum).
	Quantum int
	// Weights are the per-tenant scheduling weights; absent tenants get
	// weight 1. Nil means equal weights for everyone.
	Weights map[string]float64
}

// QoSGate admits requests through a weighted-fair queue into bounded
// pools. All methods are nil-receiver safe: a nil gate admits everything
// immediately (QoS disabled).
type QoSGate struct {
	mu      sync.Mutex
	q       *ioqueue.Queue
	io      pool // I/O slots, for Normal and Meta
	cores   pool // kernel cores, for Active; sized by ServeActive
	tenants *tenant.Table
	ids     uint64
}

// pool is a bounded set of slots and the classes it serves.
type pool struct {
	used, cap int
	classes   []ioqueue.Class
}

// NewQoSGate returns a gate with its I/O pool open. It starts nothing;
// Close only makes later tickets fail open.
func NewQoSGate(cfg QoSConfig) *QoSGate {
	slots := cfg.Slots
	if slots <= 0 {
		slots = DefaultQoSSlots
	}
	g := &QoSGate{
		q:     ioqueue.New(),
		io:    pool{cap: slots, classes: []ioqueue.Class{ioqueue.Normal, ioqueue.Meta}},
		cores: pool{classes: []ioqueue.Class{ioqueue.Active}},
	}
	if cfg.Quantum > 0 {
		g.q.SetQuantum(cfg.Quantum)
	}
	g.q.SetWeights(cfg.Weights)
	return g
}

// ServeActive opens the kernel-core pool: Active tickets are admitted onto
// one of cores kernel cores. The first call sizes the pool and grants what
// queued before it; later calls change nothing.
func (g *QoSGate) ServeActive(cores int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cores.cap > 0 {
		return
	}
	g.cores.cap = max(1, cores)
	for g.cores.used < g.cores.cap && g.handOff(&g.cores) {
		g.cores.used++
	}
}

// SetTenants attaches the node's tenant table so gate queue time lands
// in per-tenant Queued/QueueWaitNanos — the accounting behind the
// tenant.wait.share probe and the noisy-neighbor alert.
func (g *QoSGate) SetTenants(t *tenant.Table) {
	if g != nil {
		g.mu.Lock()
		g.tenants = t
		g.q.SetTenants(t)
		g.mu.Unlock()
	}
}

// Stats exposes the underlying queue's occupancy and QoS counters.
func (g *QoSGate) Stats() ioqueue.Stats {
	if g == nil {
		return ioqueue.Stats{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.q.Stats()
}

// Close shuts the gate down. Queued tickets are still granted in order as
// slots come free; later tickets that find no slot free are admitted
// without one (fail open).
func (g *QoSGate) Close() {
	if g != nil {
		g.mu.Lock()
		g.q.Close()
		g.mu.Unlock()
	}
}

// handOff grants p's slot to the next ticket of p's classes in WDRR order,
// and reports false when none is queued. The caller holds g.mu.
func (g *QoSGate) handOff(p *pool) bool {
	it, ok := g.q.PopClass(p.classes...)
	if !ok {
		return false
	}
	t := it.Payload.(*Ticket)
	t.p = p
	t.ch <- true
	return true
}

// Ticket is one request's place in the gate. The caller must Wait for
// admission and — when Wait returned true — Release the slot when the
// request finishes serving.
type Ticket struct {
	g  *QoSGate
	id uint64    // nonzero while it may be queued
	ch chan bool // buffered: its one grant or withdrawal never blocks g.mu
	p  *pool     // the pool whose slot it holds; guarded by g.mu
}

// Enqueue files a request with the gate and returns its ticket
// immediately, so the caller can register cancellation before blocking
// in Wait. A nil gate returns an already-admitted ticket that holds no
// slot. With a slot of its pool free the ticket is admitted here, and its
// tenant charged a pass with zero wait; otherwise it queues.
func (g *QoSGate) Enqueue(class ioqueue.Class, tenantID string, bytes uint64) *Ticket {
	t := &Ticket{g: g, ch: make(chan bool, 1)}
	if g == nil {
		t.ch <- true
		return t
	}
	p := &g.io
	if class == ioqueue.Active {
		p = &g.cores
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if p.used < p.cap {
		p.used++
		t.p = p
		// A pass with zero wait keeps the tenant's row and recency in the
		// table, as a queued pass would.
		g.tenants.Account(tenantID, func(*tenant.Stats) {})
		t.ch <- true
		return t
	}
	g.ids++
	t.id = g.ids
	if err := g.q.Push(ioqueue.Item{
		ID: t.id, Class: class, Tenant: tenantID, Bytes: bytes, Payload: t,
	}); err != nil {
		// Gate closed: fail open rather than wedge the serving path.
		t.ch <- true
	}
	return t
}

// Idle reports whether Enqueue would admit a normal request at once — an
// I/O slot free, so nothing of the normal class queued — without admitting
// one or taking a slot. A nil gate is always idle.
func (g *QoSGate) Idle() bool {
	if g == nil {
		return true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.io.used < g.io.cap
}

// Cancel withdraws a still-queued ticket: its Wait returns false and no
// slot is consumed. Returns false when the ticket already left the
// queue (granted, or previously cancelled) — in-flight cancellation is
// the response writer's job, not the gate's.
func (g *QoSGate) Cancel(t *Ticket) bool {
	if g == nil || t == nil || t.id == 0 {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.q.Remove(t.id); !ok {
		return false
	}
	t.ch <- false
	return true
}

// Wait blocks until the gate admits (true) or cancels (false) the
// ticket.
func (t *Ticket) Wait() bool { return <-t.ch }

// Release hands the ticket's slot to the next ticket its pool's classes
// elect, or frees it when none is queued. Idempotent; a no-op for tickets
// that never held a slot (cancelled, nil gate, fail-open).
func (t *Ticket) Release() {
	if t == nil || t.g == nil {
		return
	}
	g := t.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if p := t.p; p != nil {
		t.p = nil
		if !g.handOff(p) {
			p.used--
		}
	}
}
