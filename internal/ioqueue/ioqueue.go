// Package ioqueue provides the multi-class I/O request queue a DOSAS
// storage node schedules from. Normal I/O takes priority over active I/O —
// the paper's rule "when [the storage node] is fully engaged with I/O
// services, normal I/O will take the priority" — with metadata operations
// in a class of their own between the two, and the queue exposes the
// aggregate statistics (lengths, queued bytes) that the Contention
// Estimator probes.
//
// Within each class the queue is not FIFO but weighted deficit round robin
// across tenants: every queued tenant holds a token bucket that a
// round-robin pass refills with quantum×weight bytes of credit (capped at
// two refills, so an idle tenant cannot bank unbounded burst), and a
// tenant's head item is served only when its bucket covers the item's
// cost. One aggressor tenant therefore cannot push another tenant's
// requests arbitrarily deep into the queue: the victim's head is at most
// one round-robin pass away from credit. The scheduler is work-conserving
// — credit shapes the order requests drain, never the rate when only one
// tenant is queued.
//
// A Queue neither locks nor blocks: it is a plain data structure that its
// owner guards (the storage node's admission gate, under its one mutex),
// and a pop of an empty class returns at once.
package ioqueue

import (
	"errors"
	"slices"
	"time"

	"dosas/internal/tenant"
)

// Class separates normal I/O, metadata operations, and active I/O.
type Class uint8

// Request classes, in drain-priority order: normal data I/O first (the
// paper's rule), then metadata operations (small and latency-sensitive,
// but never allowed to displace data I/O the applications are blocked on),
// then active kernels. The separate Meta class means a stat storm queues
// against other metadata ops — weighted-fair within the class — instead of
// riding the normal class and starving the namespace behind megabytes of
// bulk data.
const (
	Normal Class = iota
	Active
	Meta

	// NumClasses counts the classes above.
	NumClasses = 3
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Active:
		return "active"
	case Meta:
		return "meta"
	default:
		return "normal"
	}
}

// drainOrder is the strict priority order Pop drains classes in.
var drainOrder = [NumClasses]Class{Normal, Meta, Active}

// Item is one queued request.
type Item struct {
	ID      uint64
	Class   Class
	Op      string // kernel name for active requests
	Bytes   uint64 // request data size d_i
	Enqueue time.Time
	// Tenant attributes the item's queue time to a tenant ("" = default)
	// and selects the deficit-round-robin bucket it drains from.
	Tenant string
	// Payload carries the scheduler-opaque request context (the admission
	// gate stores its ticket here).
	Payload any
}

// ErrClosed is returned by Push after Close.
var ErrClosed = errors.New("ioqueue: closed")

// errEmpty is returned by Pop when nothing is queued.
var errEmpty = errors.New("ioqueue: empty")

// DefaultQuantum is the per-round credit grant in bytes for a tenant of
// weight 1. A bulk chunk larger than the quantum simply takes several
// rounds of credit — progress is guaranteed because the bucket cap never
// drops below the head item's cost.
const DefaultQuantum = 256 << 10

// minCost is the floor each item is charged against its tenant's bucket.
// Zero-byte metadata operations still consume credit, so a stat storm
// drains at a bounded per-round rate instead of for free.
const minCost = 4 << 10

func itemCost(it Item) uint64 {
	if it.Bytes < minCost {
		return minCost
	}
	return it.Bytes
}

// Queue is a multi-class queue: strict priority across classes, weighted
// deficit round robin across tenants within a class. It is not safe for
// concurrent use; its owner serialises every call.
type Queue struct {
	classes [NumClasses]classQueue
	closed  bool
	now     func() time.Time
	tenants *tenant.Table

	quantum uint64
	weights map[string]float64

	throttled uint64 // cumulative head-deferred-for-credit events
}

// New returns an empty queue with equal tenant weights.
func New() *Queue {
	return &Queue{now: time.Now, quantum: DefaultQuantum}
}

// SetWeights installs per-tenant scheduling weights. A tenant absent from
// the map (and the default "" tenant, unless listed) gets weight 1; a
// tenant with weight w receives w× the per-round credit of a weight-1
// tenant. Non-positive weights are treated as 1. The map is copied.
func (q *Queue) SetWeights(w map[string]float64) {
	if len(w) == 0 {
		q.weights = nil
		return
	}
	q.weights = make(map[string]float64, len(w))
	for k, v := range w {
		q.weights[k] = v
	}
}

// SetQuantum overrides the per-round credit grant (bytes per weight-1
// tenant per round-robin pass). Non-positive restores the default.
func (q *Queue) SetQuantum(n int) {
	if n <= 0 {
		q.quantum = DefaultQuantum
	} else {
		q.quantum = uint64(n)
	}
}

// grantFor returns one round's credit for a tenant, honouring its weight.
func (q *Queue) grantFor(name string) uint64 {
	w := 1.0
	if q.weights != nil {
		if v, ok := q.weights[name]; ok && v > 0 {
			w = v
		}
	}
	g := uint64(float64(q.quantum) * w)
	if g == 0 {
		g = 1
	}
	return g
}

// SetTenants attaches the node's tenant table: every push raises the
// item's per-tenant queued gauge, and every dequeue (pop or remove)
// lowers it and accrues the item's queue wait. Nil (the default)
// disables attribution.
func (q *Queue) SetTenants(t *tenant.Table) { q.tenants = t }

// accountPop is called when an item leaves the queue for any reason.
func (q *Queue) accountPop(item Item) {
	if q.tenants == nil {
		return
	}
	wait := q.now().Sub(item.Enqueue)
	if wait < 0 {
		wait = 0
	}
	q.tenants.Account(item.Tenant, func(s *tenant.Stats) {
		s.Queued--
		s.QueueWaitNanos += uint64(wait)
	})
}

// Push enqueues item. It returns ErrClosed after Close.
func (q *Queue) Push(item Item) error {
	if q.closed {
		return ErrClosed
	}
	if item.Enqueue.IsZero() {
		item.Enqueue = q.now()
	}
	q.classes[item.class()].push(item)
	q.tenants.Account(item.Tenant, func(s *tenant.Stats) { s.Queued++ })
	return nil
}

// class clamps out-of-range class values to Normal, matching the old
// two-slot behaviour for any constant-abusing caller.
func (it Item) class() Class {
	if it.Class >= NumClasses {
		return Normal
	}
	return it.Class
}

// Pop serves the next item of any class (normal first, then metadata,
// then active), or returns an error at once when nothing is queued.
func (q *Queue) Pop() (Item, error) {
	if it, ok := q.PopClass(drainOrder[:]...); ok {
		return it, nil
	}
	return Item{}, errEmpty
}

// PopClass is Pop restricted to classes, still in drain order: a pool that
// serves only some classes takes those and leaves the others queued. It
// reports false when none of them has an item.
func (q *Queue) PopClass(classes ...Class) (Item, bool) {
	for _, c := range drainOrder {
		if !slices.Contains(classes, c) {
			continue
		}
		if it, ok := q.classes[c].pop(q); ok {
			q.accountPop(it)
			return it, true
		}
	}
	return Item{}, false
}

// Remove withdraws the queued item with the given id (any class). It
// reports whether the item was found.
func (q *Queue) Remove(id uint64) (Item, bool) {
	for c := range q.classes {
		if it, ok := q.classes[c].remove(id); ok {
			q.accountPop(it)
			return it, true
		}
	}
	return Item{}, false
}

// Stats is a snapshot of queue occupancy and QoS activity.
type Stats struct {
	NormalLen   int
	ActiveLen   int
	MetaLen     int
	NormalBytes uint64
	ActiveBytes uint64
	MetaBytes   uint64
	// Tenants counts distinct tenants with queued items.
	Tenants int
	// Throttled counts, cumulatively, how many times a tenant's head item
	// was deferred because its bucket lacked credit while other tenants
	// were queued — the signal that weighted-fair shaping is biting.
	Throttled uint64
	// DeficitBytes is the credit currently banked across all queued
	// tenants' buckets.
	DeficitBytes uint64
}

// Stats returns current occupancy.
func (q *Queue) Stats() Stats {
	st := Stats{
		NormalLen:   q.classes[Normal].len,
		ActiveLen:   q.classes[Active].len,
		MetaLen:     q.classes[Meta].len,
		NormalBytes: q.classes[Normal].bytes,
		ActiveBytes: q.classes[Active].bytes,
		MetaBytes:   q.classes[Meta].bytes,
		Throttled:   q.throttled,
	}
	for c := range q.classes {
		st.Tenants += len(q.classes[c].ring)
		for _, tq := range q.classes[c].ring {
			st.DeficitBytes += tq.deficit
		}
	}
	return st
}

// Close refuses later Pushes; queued items can still be popped.
func (q *Queue) Close() { q.closed = true }

// tenantQueue is one tenant's FIFO within a class, plus its token bucket.
type tenantQueue struct {
	name string
	q    deque
	// deficit is the banked credit in bytes.
	deficit uint64
	// fresh marks that the bucket has not yet been refilled on the
	// current round-robin visit.
	fresh bool
}

// classQueue runs weighted deficit round robin across the tenants queued
// in one class. Tenants enter the ring when their first item arrives and
// leave it — forfeiting banked credit — when their queue empties, so
// credit cannot accumulate while idle.
type classQueue struct {
	byTenant map[string]*tenantQueue
	ring     []*tenantQueue
	cursor   int
	len      int
	bytes    uint64
}

func (cq *classQueue) push(it Item) {
	if cq.byTenant == nil {
		cq.byTenant = make(map[string]*tenantQueue)
	}
	tq, ok := cq.byTenant[it.Tenant]
	if !ok {
		tq = &tenantQueue{name: it.Tenant, fresh: true}
		cq.byTenant[it.Tenant] = tq
		cq.ring = append(cq.ring, tq)
	}
	tq.q.push(it)
	cq.len++
	cq.bytes += it.Bytes
}

// pop serves the next item under WDRR.
func (cq *classQueue) pop(q *Queue) (Item, bool) {
	if cq.len == 0 {
		return Item{}, false
	}
	// Each iteration either serves an item, retires an empty tenant, or
	// refills one bucket and advances — and a bucket's cap never drops
	// below its head item's cost — so the loop always terminates with a
	// served item while cq.len > 0.
	for {
		if cq.cursor >= len(cq.ring) {
			cq.cursor = 0
		}
		tq := cq.ring[cq.cursor]
		if tq.q.len() == 0 {
			cq.retire(cq.cursor)
			continue
		}
		head, _ := tq.q.peek()
		cost := itemCost(head)
		if tq.fresh {
			grant := q.grantFor(tq.name)
			tq.deficit += grant
			// Token-bucket cap: at most two rounds of credit may be
			// banked, but always enough to cover the head item so an
			// oversized request cannot starve.
			burst := 2 * grant
			if burst < cost {
				burst = cost
			}
			if tq.deficit > burst {
				tq.deficit = burst
			}
			tq.fresh = false
		}
		if tq.deficit >= cost {
			it, _ := tq.q.pop()
			tq.deficit -= cost
			cq.len--
			cq.bytes -= it.Bytes
			if tq.q.len() == 0 {
				cq.retire(cq.cursor)
			}
			return it, true
		}
		// Head deferred for credit: move on to the next tenant. Only
		// count it as throttling when someone else stood to gain.
		if len(cq.ring) > 1 {
			q.throttled++
		}
		tq.fresh = true
		cq.cursor++
	}
}

// retire removes the tenant at ring index i, forfeiting its credit.
func (cq *classQueue) retire(i int) {
	tq := cq.ring[i]
	tq.deficit = 0
	tq.fresh = true
	delete(cq.byTenant, tq.name)
	cq.ring = append(cq.ring[:i], cq.ring[i+1:]...)
	if cq.cursor > i {
		cq.cursor--
	}
}

func (cq *classQueue) remove(id uint64) (Item, bool) {
	for i, tq := range cq.ring {
		if it, ok := tq.q.remove(id); ok {
			cq.len--
			cq.bytes -= it.Bytes
			if tq.q.len() == 0 {
				cq.retire(i)
			}
			return it, true
		}
	}
	return Item{}, false
}

// deque is a slice-backed FIFO with O(1) amortised push/pop and O(n)
// removal by id (rare: cancellations and policy bounces only).
type deque struct {
	items []Item
	head  int
}

func (d *deque) push(it Item) { d.items = append(d.items, it) }

func (d *deque) peek() (Item, bool) {
	if d.head >= len(d.items) {
		return Item{}, false
	}
	return d.items[d.head], true
}

func (d *deque) pop() (Item, bool) {
	if d.head >= len(d.items) {
		return Item{}, false
	}
	it := d.items[d.head]
	d.items[d.head] = Item{} // release payload references
	d.head++
	if d.head > 64 && d.head*2 >= len(d.items) {
		d.items = append(d.items[:0], d.items[d.head:]...)
		d.head = 0
	}
	return it, true
}

func (d *deque) remove(id uint64) (Item, bool) {
	for i := d.head; i < len(d.items); i++ {
		if d.items[i].ID == id {
			it := d.items[i]
			d.items = append(d.items[:i], d.items[i+1:]...)
			return it, true
		}
	}
	return Item{}, false
}

func (d *deque) len() int { return len(d.items) - d.head }
