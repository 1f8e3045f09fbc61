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

import (
	"sync"
	"sync/atomic"

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
	q     *ioqueue.Queue
	io    pool // I/O slots, for Normal and Meta
	cores pool // kernel cores, for Active; set by ServeActive
	once  sync.Once
	ids   atomic.Uint64
}

// pool is a bounded set of slots and the classes it serves.
type pool struct {
	slots   chan struct{}
	classes []ioqueue.Class
}

// trySlot takes a slot if one is free.
func (p *pool) trySlot() bool {
	select {
	case p.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// NewQoSGate starts a gate and its I/O pool's dispatcher. Close it to
// release the dispatchers.
func NewQoSGate(cfg QoSConfig) *QoSGate {
	slots := cfg.Slots
	if slots <= 0 {
		slots = DefaultQoSSlots
	}
	g := &QoSGate{
		q:  ioqueue.New(),
		io: pool{slots: make(chan struct{}, slots), classes: []ioqueue.Class{ioqueue.Normal, ioqueue.Meta}},
	}
	if cfg.Quantum > 0 {
		g.q.SetQuantum(cfg.Quantum)
	}
	g.q.SetWeights(cfg.Weights)
	go g.dispatch(&g.io)
	return g
}

// ServeActive opens the kernel-core pool: Active tickets are admitted onto
// one of cores kernel cores. It must come before the first Active ticket;
// later calls change nothing.
func (g *QoSGate) ServeActive(cores int) {
	g.once.Do(func() {
		g.cores = pool{slots: make(chan struct{}, max(1, cores)), classes: []ioqueue.Class{ioqueue.Active}}
		go g.dispatch(&g.cores)
	})
}

// SetTenants attaches the node's tenant table so gate queue time lands
// in per-tenant Queued/QueueWaitNanos — the accounting behind the
// tenant.wait.share probe and the noisy-neighbor alert.
func (g *QoSGate) SetTenants(t *tenant.Table) {
	if g != nil {
		g.q.SetTenants(t)
	}
}

// Stats exposes the underlying queue's occupancy and QoS counters.
func (g *QoSGate) Stats() ioqueue.Stats {
	if g == nil {
		return ioqueue.Stats{}
	}
	return g.q.Stats()
}

// Close shuts the gate down. Queued tickets are still dispatched in
// order; new Enqueues are admitted immediately (fail open).
func (g *QoSGate) Close() {
	if g != nil {
		g.q.Close()
	}
}

// dispatch is a pool's scheduler: it binds one free slot to the next item
// of the pool's classes the weighted-fair queue elects, forever. Grant
// order is therefore exactly WDRR order even when many requests race.
func (g *QoSGate) dispatch(p *pool) {
	for {
		p.slots <- struct{}{}
		it, err := g.q.PopClass(p.classes...)
		if err != nil {
			<-p.slots
			return
		}
		t := it.Payload.(*Ticket)
		t.slots = p.slots
		t.ch <- true
	}
}

// Ticket is one request's place in the gate. The caller must Wait for
// admission and — when Wait returned true — Release the slot when the
// request finishes serving.
type Ticket struct {
	id    uint64
	ch    chan bool
	slots chan struct{} // the pool whose slot it holds; set before granting
	done  atomic.Bool
}

// Enqueue files a request with the gate and returns its ticket
// immediately, so the caller can register cancellation before blocking
// in Wait. A nil gate (or a closed one) returns an already-admitted
// ticket that holds no slot. With nothing of its pool's classes queued
// and a slot of the pool free (the idle dispatcher holds one) the ticket
// is admitted here, without a hand-off.
func (g *QoSGate) Enqueue(class ioqueue.Class, tenantID string, bytes uint64) *Ticket {
	t := &Ticket{ch: make(chan bool, 1)}
	if g == nil {
		t.ch <- true
		return t
	}
	p := &g.io
	if class == ioqueue.Active {
		p = &g.cores
	}
	if g.q.Bypass(p.classes, tenantID, p.trySlot) {
		t.slots = p.slots
		t.ch <- true
		return t
	}
	t.id = g.ids.Add(1)
	if err := g.q.Push(ioqueue.Item{
		ID: t.id, Class: class, Tenant: tenantID, Bytes: bytes, Payload: t,
	}); err != nil {
		// Gate closed: fail open rather than wedge the serving path.
		t.ch <- true
	}
	return t
}

// Idle reports whether Enqueue would admit a normal request at once —
// nothing of the normal class queued, an I/O slot free — without admitting
// one or taking a slot. A nil gate is always idle.
func (g *QoSGate) Idle() bool {
	return g == nil || (g.q.Len(ioqueue.Normal) == 0 && len(g.io.slots) < cap(g.io.slots))
}

// Cancel withdraws a still-queued ticket: its Wait returns false and no
// slot is consumed. Returns false when the ticket already left the
// queue (granted, or previously cancelled) — in-flight cancellation is
// the response writer's job, not the gate's.
func (g *QoSGate) Cancel(t *Ticket) bool {
	if g == nil || t == nil || t.id == 0 {
		return false
	}
	if _, ok := g.q.Remove(t.id); ok {
		t.ch <- false
		return true
	}
	return false
}

// Wait blocks until the gate admits (true) or cancels (false) the
// ticket.
func (t *Ticket) Wait() bool { return <-t.ch }

// Release returns the ticket's slot to its pool. Idempotent; a no-op for
// tickets that never held a slot (cancelled, nil gate, fail-open).
func (t *Ticket) Release() {
	if t == nil || !t.done.CompareAndSwap(false, true) {
		return
	}
	if t.slots != nil {
		<-t.slots
	}
}
