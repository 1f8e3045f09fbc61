package tenant

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestCanonical(t *testing.T) {
	if Canonical("") != Default {
		t.Errorf("Canonical(\"\") = %q, want %q", Canonical(""), Default)
	}
	if Canonical("app-a") != "app-a" {
		t.Errorf("Canonical(app-a) = %q", Canonical("app-a"))
	}
}

func TestNilTableIsSafe(t *testing.T) {
	var tab *Table
	tab.Account("x", func(s *Stats) { s.BytesRead++ })
	if tab.Snapshot() != nil || tab.Len() != 0 || tab.Evictions() != 0 {
		t.Error("nil table must record nothing")
	}
	if share, top := tab.WaitShare(); share != 0 || top != "" {
		t.Error("nil table WaitShare must be zero")
	}
}

func TestAccountAndSnapshot(t *testing.T) {
	tab := NewTable(8)
	tab.Account("a", func(s *Stats) { s.BytesRead += 100; s.ReadOps++ })
	tab.Account("", func(s *Stats) { s.BytesWritten += 50; s.WriteOps++ })
	tab.Account("a", func(s *Stats) { s.KernelNanos += 7 })

	rows := tab.Snapshot()
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2: %+v", len(rows), rows)
	}
	// Sorted: "a" < "default".
	if rows[0].Tenant != "a" || rows[0].BytesRead != 100 || rows[0].ReadOps != 1 || rows[0].KernelNanos != 7 {
		t.Errorf("row a = %+v", rows[0])
	}
	if rows[1].Tenant != Default || rows[1].BytesWritten != 50 || rows[1].WriteOps != 1 {
		t.Errorf("row default = %+v", rows[1])
	}
}

func TestEvictionFoldsAndCounts(t *testing.T) {
	tab := NewTable(4)
	for i := 0; i < 10; i++ {
		tab.Account(fmt.Sprintf("bomb-%d", i), func(s *Stats) { s.BytesRead += 10 })
	}
	if n := tab.Len(); n != 4 {
		t.Errorf("table len = %d, want 4", n)
	}
	if ev := tab.Evictions(); ev != 6 {
		t.Errorf("evictions = %d, want 6", ev)
	}
	rows := tab.Snapshot()
	last := rows[len(rows)-1]
	if last.Tenant != Evicted || last.BytesRead != 60 {
		t.Errorf("evicted aggregate = %+v, want 60 bytes under %q", last, Evicted)
	}
	// Totals are conserved: live rows plus the fold equal everything
	// ever accounted.
	var total uint64
	for _, r := range rows {
		total += r.BytesRead
	}
	if total != 100 {
		t.Errorf("total bytes = %d, want 100", total)
	}
}

func TestEvictionSkipsTenantsWithLiveWork(t *testing.T) {
	tab := NewTable(2)
	tab.Account("busy", func(s *Stats) { s.Inflight++ })
	tab.Account("idle-1", func(s *Stats) { s.ReadOps++ })
	// "busy" is now LRU-oldest but has inflight work; the next insert
	// must evict idle-1 instead.
	tab.Account("idle-2", func(s *Stats) { s.ReadOps++ })
	rows := tab.Snapshot()
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Tenant] = true
	}
	if !names["busy"] {
		t.Errorf("busy tenant was evicted with inflight work: %+v", rows)
	}
	if names["idle-1"] {
		t.Errorf("idle-1 should have been the victim: %+v", rows)
	}
	// Releasing the gauge makes it evictable again.
	tab.Account("busy", func(s *Stats) { s.Inflight-- })
	tab.Account("idle-3", func(s *Stats) { s.ReadOps++ })
	tab.Account("idle-4", func(s *Stats) { s.ReadOps++ })
	if n := tab.Len(); n != 2 {
		t.Errorf("table len = %d after release, want 2", n)
	}
}

func TestWaitShare(t *testing.T) {
	tab := NewTable(8)
	// Single tenant accruing wait: never a noisy-neighbor signal.
	tab.Account("a", func(s *Stats) { s.QueueWaitNanos += 1000 })
	if share, top := tab.WaitShare(); share != 0 || top != "" {
		t.Errorf("single-tenant share = %v/%q, want 0", share, top)
	}
	// Two tenants, 9:1 split this tick.
	tab.Account("a", func(s *Stats) { s.QueueWaitNanos += 900 })
	tab.Account("b", func(s *Stats) { s.QueueWaitNanos += 100 })
	share, top := tab.WaitShare()
	if top != "a" || share != 0.9 {
		t.Errorf("share = %v/%q, want 0.9/a", share, top)
	}
	if cachedTop, cachedShare := tab.TopWait(); cachedTop != "a" || cachedShare != 0.9 {
		t.Errorf("TopWait = %q/%v", cachedTop, cachedShare)
	}
	// No new wait: share falls back to 0 (deltas, not cumulative).
	if share, _ := tab.WaitShare(); share != 0 {
		t.Errorf("quiet-tick share = %v, want 0", share)
	}
	// A queued tenant contends even before its wait posts: wait only
	// accrues at dequeue, so a victim stuck behind a deep queue would
	// otherwise never register while the aggressor hogs the node.
	tab.Account("a", func(s *Stats) { s.QueueWaitNanos += 500 })
	tab.Account("b", func(s *Stats) { s.Queued++ })
	share, top = tab.WaitShare()
	if top != "a" || share != 1.0 {
		t.Errorf("queued-contender share = %v/%q, want 1.0/a", share, top)
	}
	// Two tenants still queued with no wait posted this tick: the last
	// measurement carries forward (dequeues are coarser than ticks).
	tab.Account("a", func(s *Stats) { s.Queued++ })
	share, top = tab.WaitShare()
	if top != "a" || share != 1.0 {
		t.Errorf("carried share = %v/%q, want 1.0/a", share, top)
	}
	// But a lone tenant with queued items is still not a contention
	// signal.
	tab.Account("b", func(s *Stats) { s.Queued-- })
	tab.Account("a", func(s *Stats) { s.QueueWaitNanos += 500 })
	if share, _ := tab.WaitShare(); share != 0 {
		t.Errorf("lone-queued share = %v, want 0", share)
	}
}

func TestUsageCodecAndMerge(t *testing.T) {
	a := []Usage{{Tenant: "a", BytesRead: 10, QueueWaitNanos: 5}}
	b := []Usage{{Tenant: "a", BytesRead: 1}, {Tenant: "b", WriteOps: 2}}
	blob, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var back []Usage
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0] != a[0] {
		t.Errorf("decode = %+v", back)
	}
	merged := Merge(a, b)
	if len(merged) != 2 || merged[0].Tenant != "a" || merged[0].BytesRead != 11 || merged[1].WriteOps != 2 {
		t.Errorf("merge = %+v", merged)
	}
}

func TestTableConcurrency(t *testing.T) {
	tab := NewTable(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("t-%d", g%4)
			for i := 0; i < 1000; i++ {
				tab.Account(name, func(s *Stats) { s.BytesRead++ })
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	for _, r := range tab.Snapshot() {
		total += r.BytesRead
	}
	if total != 8000 {
		t.Errorf("total = %d, want 8000", total)
	}
}

// The carried-forward noisy-neighbor share must clear once the dominant
// tenant drains its queue, even while other tenants keep contending.
// Before the fix, a tick with contention but no posted wait pinned the
// stale top/share forever and the resolved alert never cleared.
func TestWaitShareCarryForwardClearsWhenTopDrains(t *testing.T) {
	tab := NewTable(8)
	tab.Account("a", func(s *Stats) { s.QueueWaitNanos += 900 })
	tab.Account("b", func(s *Stats) { s.QueueWaitNanos += 100 })
	if share, top := tab.WaitShare(); top != "a" || share != 0.9 {
		t.Fatalf("setup share = %v/%q, want 0.9/a", share, top)
	}

	// Quiet tick, dominant tenant still queued: the measurement carries.
	tab.Account("a", func(s *Stats) { s.Queued++ })
	tab.Account("b", func(s *Stats) { s.Queued++ })
	if share, top := tab.WaitShare(); top != "a" || share != 0.9 {
		t.Fatalf("carried share = %v/%q, want 0.9/a", share, top)
	}

	// The aggressor drains; two other tenants still contend, no wait
	// posts this tick. The stale share must not be pinned.
	tab.Account("a", func(s *Stats) { s.Queued-- })
	tab.Account("c", func(s *Stats) { s.Queued++ })
	if share, top := tab.WaitShare(); share != 0 || top != "" {
		t.Errorf("post-drain share = %v/%q, want 0/\"\"", share, top)
	}

	// And it stays clear on subsequent quiet ticks.
	if share, top := tab.WaitShare(); share != 0 || top != "" {
		t.Errorf("steady-state share = %v/%q, want 0/\"\"", share, top)
	}
}
