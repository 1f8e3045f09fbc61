// Package tenant is the per-tenant resource attribution plane. Every
// client stamps its requests with a tenant ID (an opaque string,
// defaulting to "default"); each storage node folds the resources those
// requests consume — bytes moved, ops by type, kernel CPU, queue wait,
// bounces and interrupts — into a bounded Table keyed by tenant. The
// table is pure observation: it never throttles anything, it only
// answers "which app is consuming this node" for dosasctl tenants, the
// OpenMetrics dosas_tenant families, and the noisy-neighbor SLO rule.
//
// The table is bounded with LRU eviction so a client minting a fresh
// tenant ID per request (a cardinality bomb, malicious or buggy) cannot
// grow a node's memory without limit: past the cap the least-recently
// active tenant's counters fold into a pinned "(evicted)" aggregate row
// and an eviction counter ticks. Tenants with in-flight or queued work
// are never evicted, so gauges cannot go negative under churn.
package tenant

import (
	"container/list"
	"sort"
	"sync"
)

// Default is the tenant every unlabelled request is attributed to. An
// empty tenant string on the wire means Default: pre-tenant peers and
// unconfigured clients land here.
const Default = "default"

// Evicted is the pinned pseudo-tenant aggregating every evicted
// tenant's counters, so totals stay conserved across evictions.
const Evicted = "(evicted)"

// DefaultLimit bounds the table when NewTable is given no cap.
const DefaultLimit = 256

// Canonical maps the wire encoding of a tenant ID to its accounting
// key: the empty string is the default tenant.
func Canonical(id string) string {
	if id == "" {
		return Default
	}
	return id
}

// Stats is one tenant's cumulative resource consumption on one node.
// All mutation happens under the owning Table's lock; snapshots are
// consistent.
type Stats struct {
	BytesRead    uint64
	BytesWritten uint64
	ReadOps      uint64
	WriteOps     uint64
	TruncOps     uint64
	ActiveOps    uint64
	TransformOps uint64
	// KernelNanos is CPU time active kernels burned for this tenant.
	KernelNanos uint64
	// Bounces counts active requests pushed back to the client (static
	// policy, solver decision, or memory pressure).
	Bounces uint64
	// Interrupts counts running kernels interrupted out from under this
	// tenant.
	Interrupts uint64
	// QueueWaitNanos accumulates time this tenant's items spent queued
	// before dispatch.
	QueueWaitNanos uint64
	// Queued and Inflight are live gauges: items waiting in queue and
	// requests currently executing.
	Queued   int64
	Inflight int64

	// lastWait is QueueWaitNanos at the previous WaitShare call — the
	// per-tick delta base for the tenant.wait.share probe.
	lastWait uint64
}

// Usage is the JSON snapshot row served by the tenants introspection and
// rendered by dosasctl tenants.
type Usage struct {
	Tenant         string `json:"tenant"`
	BytesRead      uint64 `json:"bytes_read,omitempty"`
	BytesWritten   uint64 `json:"bytes_written,omitempty"`
	ReadOps        uint64 `json:"read_ops,omitempty"`
	WriteOps       uint64 `json:"write_ops,omitempty"`
	TruncOps       uint64 `json:"trunc_ops,omitempty"`
	ActiveOps      uint64 `json:"active_ops,omitempty"`
	TransformOps   uint64 `json:"transform_ops,omitempty"`
	KernelNanos    uint64 `json:"kernel_ns,omitempty"`
	Bounces        uint64 `json:"bounces,omitempty"`
	Interrupts     uint64 `json:"interrupts,omitempty"`
	QueueWaitNanos uint64 `json:"queue_wait_ns,omitempty"`
	Queued         int64  `json:"queued,omitempty"`
	Inflight       int64  `json:"inflight,omitempty"`
}

// add folds s into u.
func (u *Usage) add(s *Stats) {
	u.BytesRead += s.BytesRead
	u.BytesWritten += s.BytesWritten
	u.ReadOps += s.ReadOps
	u.WriteOps += s.WriteOps
	u.TruncOps += s.TruncOps
	u.ActiveOps += s.ActiveOps
	u.TransformOps += s.TransformOps
	u.KernelNanos += s.KernelNanos
	u.Bounces += s.Bounces
	u.Interrupts += s.Interrupts
	u.QueueWaitNanos += s.QueueWaitNanos
	u.Queued += s.Queued
	u.Inflight += s.Inflight
}

// Merge folds usage rows from several nodes into one row per tenant,
// sorted by tenant name — the cluster-total view.
func Merge(sets ...[]Usage) []Usage {
	byTenant := make(map[string]*Usage)
	for _, set := range sets {
		for _, u := range set {
			t, ok := byTenant[u.Tenant]
			if !ok {
				t = &Usage{Tenant: u.Tenant}
				byTenant[u.Tenant] = t
			}
			row := u
			t.BytesRead += row.BytesRead
			t.BytesWritten += row.BytesWritten
			t.ReadOps += row.ReadOps
			t.WriteOps += row.WriteOps
			t.TruncOps += row.TruncOps
			t.ActiveOps += row.ActiveOps
			t.TransformOps += row.TransformOps
			t.KernelNanos += row.KernelNanos
			t.Bounces += row.Bounces
			t.Interrupts += row.Interrupts
			t.QueueWaitNanos += row.QueueWaitNanos
			t.Queued += row.Queued
			t.Inflight += row.Inflight
		}
	}
	out := make([]Usage, 0, len(byTenant))
	for _, u := range byTenant {
		out = append(out, *u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

type entry struct {
	name  string
	stats Stats
	elem  *list.Element
}

// Table is one node's bounded tenant accounting table. A nil *Table is
// valid and records nothing, so attribution can be disabled without
// nil checks at every call site.
type Table struct {
	mu      sync.Mutex
	limit   int
	entries map[string]*entry
	lru     *list.List // front = most recently active
	evicted uint64
	folded  Stats // pinned aggregate of evicted tenants
	// last WaitShare result, for the SLO annotation hook.
	lastTop   string
	lastShare float64
}

// NewTable builds a table evicting past limit live tenants (0 takes
// DefaultLimit).
func NewTable(limit int) *Table {
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Table{
		limit:   limit,
		entries: make(map[string]*entry),
		lru:     list.New(),
	}
}

// Account looks up (creating and LRU-touching) the canonical tenant and
// applies f to its counters under the table lock. f must be cheap and
// must not call back into the table.
func (t *Table) Account(id string, f func(*Stats)) {
	if t == nil {
		return
	}
	id = Canonical(id)
	t.mu.Lock()
	e := t.entries[id]
	if e == nil {
		e = &entry{name: id}
		e.elem = t.lru.PushFront(e)
		t.entries[id] = e
		t.evictLocked()
	} else {
		t.lru.MoveToFront(e.elem)
	}
	f(&e.stats)
	t.mu.Unlock()
}

// evictLocked folds least-recently-active tenants into the pinned
// aggregate until the table is back within its limit. Tenants with live
// queued or in-flight work are skipped: their gauges must keep a row to
// decrement, so under pathological churn the table can exceed the limit
// by at most the number of concurrently active tenants.
func (t *Table) evictLocked() {
	for len(t.entries) > t.limit {
		victim := (*entry)(nil)
		for el := t.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*entry)
			if e.stats.Queued == 0 && e.stats.Inflight == 0 {
				victim = e
				break
			}
		}
		if victim == nil {
			return
		}
		t.lru.Remove(victim.elem)
		delete(t.entries, victim.name)
		t.folded.BytesRead += victim.stats.BytesRead
		t.folded.BytesWritten += victim.stats.BytesWritten
		t.folded.ReadOps += victim.stats.ReadOps
		t.folded.WriteOps += victim.stats.WriteOps
		t.folded.TruncOps += victim.stats.TruncOps
		t.folded.ActiveOps += victim.stats.ActiveOps
		t.folded.TransformOps += victim.stats.TransformOps
		t.folded.KernelNanos += victim.stats.KernelNanos
		t.folded.Bounces += victim.stats.Bounces
		t.folded.Interrupts += victim.stats.Interrupts
		t.folded.QueueWaitNanos += victim.stats.QueueWaitNanos
		// lastWait folds too so the share probe's delta base survives.
		t.folded.lastWait += victim.stats.lastWait
		t.evicted++
	}
}

// Evictions reports how many tenants have been folded out of the table
// since the node started.
func (t *Table) Evictions() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

// Len reports how many live tenants the table holds.
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Snapshot returns every live tenant's usage sorted by tenant name,
// with the evicted aggregate appended as the "(evicted)" row when any
// eviction has happened.
func (t *Table) Snapshot() []Usage {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Usage, 0, len(t.entries)+1)
	for _, e := range t.entries {
		u := Usage{Tenant: e.name}
		u.add(&e.stats)
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	if t.evicted > 0 {
		u := Usage{Tenant: Evicted}
		u.add(&t.folded)
		out = append(out, u)
	}
	return out
}

// WaitShare advances the queue-wait share probe one tick: it computes
// each tenant's QueueWaitNanos delta since the previous call and
// returns the largest tenant's share of the total, naming that tenant.
// A tenant counts as a contender when it accrued wait this tick OR is
// queued right now — wait only posts at dequeue, so a victim stuck
// behind a long queue contends for many ticks before its first delta
// lands. With fewer than two contenders the share is 0: a single-tenant
// node is by definition not a noisy-neighbor situation, and the SLO
// rule must not fire on it. Call it from exactly one sampler probe;
// concurrent callers would split the deltas.
func (t *Table) WaitShare() (share float64, top string) {
	if t == nil {
		return 0, ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var total, max uint64
	var contenders int
	for _, e := range t.entries {
		d := e.stats.QueueWaitNanos - e.stats.lastWait
		e.stats.lastWait = e.stats.QueueWaitNanos
		if d == 0 {
			if e.stats.Queued > 0 {
				contenders++
			}
			continue
		}
		contenders++
		total += d
		if d > max || (d == max && (top == "" || e.name < top)) {
			max = d
			top = e.name
		}
	}
	// The folded aggregate advances its base too, but never competes.
	t.folded.lastWait = t.folded.QueueWaitNanos
	if contenders < 2 {
		t.lastTop, t.lastShare = "", 0
		return 0, ""
	}
	if total == 0 {
		// Contention persists (two-plus tenants queued) but no wait
		// posted this tick — waits post at dequeue, which is coarser
		// than the sampling tick. Carry the last measurement forward
		// rather than reporting a spurious all-clear — but only while
		// the carried dominant tenant is still part of the contention.
		// Once it has drained its queue, pinning its old share would
		// hold a resolved noisy-neighbor alert firing forever.
		if e := t.entries[t.lastTop]; e != nil && e.stats.Queued > 0 {
			return t.lastShare, t.lastTop
		}
		t.lastTop, t.lastShare = "", 0
		return 0, ""
	}
	share = float64(max) / float64(total)
	t.lastTop, t.lastShare = top, share
	return share, top
}

// TopWait returns the most recent WaitShare result — the tenant (and
// its share) the noisy-neighbor alert names via the SLO annotation
// hook. Empty until WaitShare has seen contention.
func (t *Table) TopWait() (string, float64) {
	if t == nil {
		return "", 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastTop, t.lastShare
}
