package ioqueue

import (
	"testing"
	"time"

	"dosas/internal/tenant"
)

func TestFIFOWithinClass(t *testing.T) {
	q := New()
	for i := 1; i <= 5; i++ {
		if err := q.Push(Item{ID: uint64(i), Class: Active}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 5; i++ {
		it, err := q.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if it.ID != uint64(i) {
			t.Fatalf("pop %d: got id %d", i, it.ID)
		}
	}
}

func TestNormalPriorityOverActive(t *testing.T) {
	q := New()
	q.Push(Item{ID: 1, Class: Active})
	q.Push(Item{ID: 2, Class: Normal})
	q.Push(Item{ID: 3, Class: Active})
	q.Push(Item{ID: 4, Class: Normal})
	var order []uint64
	for i := 0; i < 4; i++ {
		it, err := q.Pop()
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, it.ID)
	}
	want := []uint64{2, 4, 1, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestStatsTrackBytesAndLengths(t *testing.T) {
	q := New()
	q.Push(Item{ID: 1, Class: Active, Bytes: 100})
	q.Push(Item{ID: 2, Class: Normal, Bytes: 7})
	q.Push(Item{ID: 3, Class: Active, Bytes: 50})
	st := q.Stats()
	if st.ActiveLen != 2 || st.NormalLen != 1 || st.ActiveBytes != 150 || st.NormalBytes != 7 {
		t.Fatalf("stats = %+v", st)
	}
	q.Pop() // drains the normal item first
	st = q.Stats()
	if st.NormalLen != 0 || st.NormalBytes != 0 || st.ActiveBytes != 150 {
		t.Fatalf("stats after pop = %+v", st)
	}
}

func TestRemove(t *testing.T) {
	q := New()
	q.Push(Item{ID: 1, Class: Active, Bytes: 10})
	q.Push(Item{ID: 2, Class: Active, Bytes: 20})
	q.Push(Item{ID: 3, Class: Active, Bytes: 30})
	it, ok := q.Remove(2)
	if !ok || it.Bytes != 20 {
		t.Fatalf("remove = %+v, %v", it, ok)
	}
	if _, ok := q.Remove(2); ok {
		t.Fatal("double remove succeeded")
	}
	if st := q.Stats(); st.ActiveLen != 2 || st.ActiveBytes != 40 {
		t.Fatalf("stats = %+v", st)
	}
	a, _ := q.Pop()
	b, _ := q.Pop()
	if a.ID != 1 || b.ID != 3 {
		t.Fatalf("order after remove: %d, %d", a.ID, b.ID)
	}
}

// PopClass serves only the classes it names, in drain order, and leaves
// the rest queued; with none of them queued it returns at once.
func TestPopClassServesItsClasses(t *testing.T) {
	q := New()
	q.Push(Item{ID: 1, Class: Active})
	q.Push(Item{ID: 2, Class: Meta})
	q.Push(Item{ID: 3, Class: Normal})
	if it, ok := q.PopClass(Active); !ok || it.ID != 1 {
		t.Fatalf("PopClass(Active) = %+v, %v", it, ok)
	}
	if it, ok := q.PopClass(Meta, Normal); !ok || it.ID != 3 {
		t.Fatalf("PopClass(Meta, Normal) = %+v, %v; want the normal item first", it, ok)
	}
	if st := q.Stats(); st.ActiveLen != 0 || st.NormalLen != 0 || st.MetaLen != 1 {
		t.Fatalf("stats = %+v, want one meta item left", st)
	}
	if it, ok := q.PopClass(Active, Normal); ok {
		t.Fatalf("PopClass(Active, Normal) took %+v past their empty classes", it)
	}
	q.Push(Item{ID: 4, Class: Active})
	if it, ok := q.PopClass(Active); !ok || it.ID != 4 {
		t.Fatalf("PopClass(Active) = %+v, %v after an active push", it, ok)
	}
}

// Pop never blocks: an empty queue answers with an error at once. A
// closed queue refuses pushes and still gives up what it holds.
func TestPopNeverBlocks(t *testing.T) {
	q := New()
	if it, err := q.Pop(); err == nil {
		t.Fatalf("Pop on an empty queue = %+v", it)
	}
	q.Push(Item{ID: 1, Class: Active})
	q.Close()
	if err := q.Push(Item{ID: 2}); err != ErrClosed {
		t.Errorf("push after close = %v, want ErrClosed", err)
	}
	if it, err := q.Pop(); err != nil || it.ID != 1 {
		t.Fatalf("Pop after close = %+v, %v; want the queued item", it, err)
	}
	if _, err := q.Pop(); err == nil {
		t.Fatal("Pop on a drained queue succeeded")
	}
}

func TestTenantAccounting(t *testing.T) {
	q := New()
	now := time.Unix(100, 0)
	q.now = func() time.Time { return now }
	tab := tenant.NewTable(8)
	q.SetTenants(tab)

	q.Push(Item{ID: 1, Class: Active, Tenant: "a"})
	q.Push(Item{ID: 2, Class: Active, Tenant: "a"})
	q.Push(Item{ID: 3, Class: Normal}) // default tenant
	rows := tab.Snapshot()
	if len(rows) != 2 || rows[0].Tenant != "a" || rows[0].Queued != 2 || rows[1].Queued != 1 {
		t.Fatalf("after push: %+v", rows)
	}

	// Pop after 5ms: queued gauge drops, wait accrues to the right tenant.
	now = now.Add(5 * time.Millisecond)
	it, _ := q.Pop() // normal first → default tenant
	if it.ID != 3 {
		t.Fatalf("popped %d, want 3", it.ID)
	}
	rows = tab.Snapshot()
	if rows[1].Queued != 0 || rows[1].QueueWaitNanos != uint64(5*time.Millisecond) {
		t.Fatalf("default row after pop: %+v", rows[1])
	}

	// Remove also settles the gauge and accrues wait.
	now = now.Add(5 * time.Millisecond)
	for id := uint64(1); id <= 2; id++ {
		if _, ok := q.Remove(id); !ok {
			t.Fatalf("remove %d failed", id)
		}
	}
	rows = tab.Snapshot()
	if rows[0].Queued != 0 || rows[0].QueueWaitNanos != uint64(20*time.Millisecond) {
		t.Fatalf("tenant a after removes: %+v", rows[0])
	}
	if st := q.Stats(); st.ActiveLen+st.NormalLen+st.MetaLen != 0 {
		t.Fatalf("queue not empty: %+v", st)
	}
}

func TestTenantAccountingDisabled(t *testing.T) {
	// With no table attached, the queue must behave exactly as before.
	q := New()
	q.Push(Item{ID: 1, Class: Active, Tenant: "a"})
	if it, err := q.Pop(); err != nil || it.ID != 1 {
		t.Fatalf("pop = %+v, %v", it, err)
	}
}

// Deque compaction must not corrupt order after many push/pop cycles.
func TestDequeCompaction(t *testing.T) {
	q := New()
	next := uint64(1)
	popped := uint64(1)
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			q.Push(Item{ID: next, Class: Active})
			next++
		}
		for i := 0; i < 15; i++ {
			it, err := q.Pop()
			if err != nil {
				t.Fatal(err)
			}
			if it.ID != popped {
				t.Fatalf("round %d: got %d, want %d", round, it.ID, popped)
			}
			popped++
		}
	}
}

// --- WDRR tests ---

// Two tenants with equal weights and equal item sizes must interleave
// instead of draining in arrival order.
func TestWDRRInterleavesTenants(t *testing.T) {
	q := New()
	q.SetQuantum(100)
	for i := 0; i < 4; i++ {
		q.Push(Item{ID: uint64(i + 1), Class: Active, Tenant: "a", Bytes: 100})
	}
	for i := 0; i < 4; i++ {
		q.Push(Item{ID: uint64(i + 11), Class: Active, Tenant: "b", Bytes: 100})
	}
	var tenants []string
	for i := 0; i < 8; i++ {
		it, err := q.Pop()
		if err != nil {
			t.Fatalf("pop %d failed", i)
		}
		tenants = append(tenants, it.Tenant)
	}
	// A strict FIFO would give aaaabbbb; WDRR must alternate service.
	var aRun int
	for _, tn := range tenants {
		if tn == "a" {
			aRun++
			if aRun >= 4 {
				t.Fatalf("tenant a served 4 in a row: %v", tenants)
			}
		} else {
			aRun = 0
		}
	}
}

// A tenant with weight 3 must receive about 3x the bytes of a weight-1
// tenant over a contended drain.
func TestWDRRWeights(t *testing.T) {
	q := New()
	q.SetQuantum(64 << 10)
	q.SetWeights(map[string]float64{"big": 3, "small": 1})
	const itemSize = 64 << 10
	for i := 0; i < 64; i++ {
		q.Push(Item{ID: uint64(1000 + i), Class: Normal, Tenant: "big", Bytes: itemSize})
		q.Push(Item{ID: uint64(2000 + i), Class: Normal, Tenant: "small", Bytes: itemSize})
	}
	// Drain the first half of the backlog and count by tenant.
	counts := map[string]int{}
	for i := 0; i < 64; i++ {
		it, err := q.Pop()
		if err != nil {
			t.Fatalf("pop %d failed", i)
		}
		counts[it.Tenant]++
	}
	if counts["big"] < 40 || counts["big"] > 56 {
		t.Fatalf("weight-3 tenant got %d of 64 slots, want ~48 (3:1)", counts["big"])
	}
}

// Meta class drains after Normal but before Active.
func TestMetaClassOrdering(t *testing.T) {
	q := New()
	q.Push(Item{ID: 1, Class: Active})
	q.Push(Item{ID: 2, Class: Meta})
	q.Push(Item{ID: 3, Class: Normal})
	var order []uint64
	for i := 0; i < 3; i++ {
		it, _ := q.Pop()
		order = append(order, it.ID)
	}
	if order[0] != 3 || order[1] != 2 || order[2] != 1 {
		t.Fatalf("order = %v, want [3 2 1]", order)
	}
	st := q.Stats()
	if st.MetaLen != 0 || st.Throttled != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// Zero-byte metadata ops still consume credit (the min-cost floor), so a
// stat storm from one tenant cannot starve another tenant's meta ops.
func TestMetaStormFairness(t *testing.T) {
	q := New()
	for i := 0; i < 100; i++ {
		q.Push(Item{ID: uint64(i + 1), Class: Meta, Tenant: "storm"})
	}
	q.Push(Item{ID: 999, Class: Meta, Tenant: "victim"})
	// The victim's single op must surface within roughly one round of
	// credit (quantum/minCost items), not behind all 100 storm ops.
	limit := int(2*DefaultQuantum/minCost) + 2
	for i := 0; i < limit; i++ {
		it, err := q.Pop()
		if err != nil {
			t.Fatal("queue empty early")
		}
		if it.ID == 999 {
			return
		}
	}
	t.Fatalf("victim meta op not served within %d pops", limit)
}

// Throttled and DeficitBytes surface via Stats when shaping bites.
func TestQoSStats(t *testing.T) {
	q := New()
	q.SetQuantum(10)
	q.Push(Item{ID: 1, Class: Active, Tenant: "a", Bytes: 100 << 10})
	q.Push(Item{ID: 2, Class: Active, Tenant: "b", Bytes: 100 << 10})
	for i := 0; i < 2; i++ {
		if _, err := q.Pop(); err != nil {
			t.Fatalf("pop %d failed", i)
		}
	}
	if st := q.Stats(); st.Throttled == 0 {
		t.Fatalf("expected throttle events, stats = %+v", st)
	}
	// DeficitBytes reflects banked credit while tenants are queued.
	q2 := New()
	q2.SetQuantum(1 << 20)
	q2.Push(Item{ID: 1, Class: Normal, Tenant: "a", Bytes: 4 << 20})
	q2.Push(Item{ID: 2, Class: Normal, Tenant: "b", Bytes: 4 << 20})
	if st := q2.Stats(); st.Tenants != 2 {
		t.Fatalf("tenants = %d, want 2", st.Tenants)
	}
}

// An idle tenant must not bank unbounded credit: after its queue empties
// it rejoins with a fresh bucket.
func TestNoCreditBanking(t *testing.T) {
	q := New()
	q.SetQuantum(100)
	q.Push(Item{ID: 1, Class: Active, Tenant: "a", Bytes: 100})
	if it, _ := q.Pop(); it.ID != 1 {
		t.Fatal("pop failed")
	}
	if st := q.Stats(); st.DeficitBytes != 0 {
		t.Fatalf("credit banked across idle: %+v", st)
	}
}

// Remove out of a multi-tenant ring keeps counters consistent.
func TestRemoveMultiTenant(t *testing.T) {
	q := New()
	q.Push(Item{ID: 1, Class: Active, Tenant: "a", Bytes: 10})
	q.Push(Item{ID: 2, Class: Active, Tenant: "b", Bytes: 20})
	q.Push(Item{ID: 3, Class: Active, Tenant: "a", Bytes: 30})
	if it, ok := q.Remove(2); !ok || it.Bytes != 20 {
		t.Fatalf("remove = %+v %v", it, ok)
	}
	if st := q.Stats(); st.ActiveLen != 2 || st.ActiveBytes != 40 || st.Tenants != 1 {
		t.Fatalf("stats = %+v", st)
	}
	ids := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		it, _ := q.Pop()
		ids[it.ID] = true
	}
	if !ids[1] || !ids[3] {
		t.Fatalf("ids = %v", ids)
	}
}
