package pfs

import (
	"bytes"
	"testing"
	"testing/quick"

	"dosas/internal/wire"
)

func layoutFor(stripe uint32, width int) wire.Layout {
	servers := make([]uint32, width)
	for i := range servers {
		servers[i] = uint32(i)
	}
	return wire.Layout{StripeSize: stripe, Servers: servers}
}

func checkRuns(t *testing.T, got, want []Run) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d runs, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("run[%d] = %+v, want %+v", i, got[i], w)
		}
	}
}

func TestRunsSimple(t *testing.T) {
	// Stripes: s0→srv0 local0, s1→srv1 local0, s2→srv2 local0,
	// s3→srv0 local10 (i.e. local stripe 1), 5 bytes of it — contiguous
	// with s0 in srv0's stream, so srv0 gets one 15-byte run.
	checkRuns(t, Runs(layoutFor(10, 3), 0, 35), []Run{
		{Slot: 0, Server: 0, FileOffset: 0, LocalOffset: 0, Length: 15},
		{Slot: 1, Server: 1, FileOffset: 10, LocalOffset: 0, Length: 10},
		{Slot: 2, Server: 2, FileOffset: 20, LocalOffset: 0, Length: 10},
	})
}

func TestRunsUnaligned(t *testing.T) {
	// Offset 15 is inside stripe 1 (srv1, local 0..10), 5 bytes left;
	// then stripe 2 (srv0, local stripe 1 → local 10..20), 5 bytes.
	checkRuns(t, Runs(layoutFor(10, 2), 15, 10), []Run{
		{Slot: 1, Server: 1, FileOffset: 15, LocalOffset: 5, Length: 5},
		{Slot: 0, Server: 0, FileOffset: 20, LocalOffset: 10, Length: 5},
	})
}

// Any range on a one-server layout is a single run whose local offset
// equals the file offset, mid-stripe starts included.
func TestRunsWidthOne(t *testing.T) {
	l := layoutFor(64, 1)
	for _, tc := range []struct{ off, length uint64 }{
		{0, 1}, {63, 2}, {37, 1000}, {129, 64}, {1, 12345},
	} {
		checkRuns(t, Runs(l, tc.off, tc.length), []Run{
			{FileOffset: tc.off, LocalOffset: tc.off, Length: tc.length},
		})
	}
}

func TestRunsEmptyInputs(t *testing.T) {
	if Runs(layoutFor(10, 2), 5, 0) != nil {
		t.Error("zero length should return nil")
	}
	if Runs(wire.Layout{}, 0, 10) != nil {
		t.Error("empty layout should return nil")
	}
}

// Mid-stripe starts: the run of the slot the range begins in starts in
// the stripe interior; every other run starts stripe-aligned, and a slot
// the range wraps back onto (slot 2 here) takes both visits in one run.
func TestRunsMidStripeStart(t *testing.T) {
	// 237 is 37 bytes into global stripe 2; the range ends 37 bytes into
	// global stripe 6, slot 2 again.
	checkRuns(t, Runs(layoutFor(100, 4), 237, 400), []Run{
		{Slot: 2, Server: 2, FileOffset: 237, LocalOffset: 37, Length: 100},
		{Slot: 3, Server: 3, FileOffset: 300, LocalOffset: 0, Length: 100},
		{Slot: 0, Server: 0, FileOffset: 400, LocalOffset: 100, Length: 100},
		{Slot: 1, Server: 1, FileOffset: 500, LocalOffset: 100, Length: 100},
	})
}

// Single-byte tails: the last byte of a file whose size is 1 mod stripe
// lands alone on the next slot in rotation.
func TestRunsSingleByteTail(t *testing.T) {
	l := layoutFor(100, 3)
	tail := Run{Slot: 0, Server: 0, FileOffset: 300, LocalOffset: 100, Length: 1}
	checkRuns(t, Runs(l, 300, 1), []Run{tail})
	if whole := Runs(l, 0, 301); whole[0].Length != 101 {
		t.Fatalf("slot 0 run of the whole file = %+v, want 101 bytes", whole[0])
	}
	// LocalSize agrees: slot 0 holds the extra byte.
	if got := LocalSize(l, 301, 0); got != 101 {
		t.Fatalf("LocalSize slot 0 = %d, want 101", got)
	}
	if got := LocalSize(l, 301, 1); got != 100 {
		t.Fatalf("LocalSize slot 1 = %d, want 100", got)
	}
}

// Property: runs and their strided views map every byte of a range to
// the (slot, local offset) the stripe arithmetic gives it. The oracle is
// the definition — global stripe x/ss lives on slot (x/ss)%w as local
// stripe x/ss/w — cross-checked against FileOffsetOf and LocalSize. Each
// run scatters a tag of (slot, local offset) through its view; afterwards
// every buffer byte must carry its own oracle tag, which also proves the
// views are disjoint and cover the range.
func TestRunsMapLikeOracleProperty(t *testing.T) {
	tag := func(slot int, local uint64) byte { return byte(uint64(slot)*131 + local*7 + local>>8) }
	f := func(stripePow, width8 uint8, off uint16, length uint16) bool {
		ss := uint64(1) << (stripePow%8 + 1) // 2..256
		w := uint64(width8%5) + 1
		l := layoutFor(uint32(ss), int(w))
		runs := Runs(l, uint64(off), uint64(length))
		if length == 0 {
			return runs == nil
		}
		if len(runs) > int(w) {
			return false
		}
		buf := make([]byte, length)
		seen := map[int]bool{}
		var total uint64
		for i, r := range runs {
			if seen[r.Slot] || r.Length == 0 || r.Server != l.Servers[r.Slot] ||
				r.FileOffset != FileOffsetOf(l, r.Slot, r.LocalOffset) ||
				(i > 0 && r.FileOffset <= runs[i-1].FileOffset) {
				return false
			}
			seen[r.Slot] = true
			total += r.Length
			// The run is the slot's bytes between the two file prefixes.
			if r.LocalOffset != LocalSize(l, uint64(off), r.Slot) ||
				r.LocalOffset+r.Length != LocalSize(l, uint64(off)+uint64(length), r.Slot) {
				return false
			}
			src := make([]byte, r.Length)
			for k := range src {
				src[k] = tag(r.Slot, r.LocalOffset+uint64(k))
			}
			v := r.view(l, buf, uint64(off))
			v.copyFrom(src)
			if !bytes.Equal(gather(v), src) {
				return false
			}
			// Sub-views (the window's chunks) gather the same bytes.
			at := int(r.Length) / 3
			if n := int(r.Length) - at; n > 0 && !bytes.Equal(gather(v.slice(at, n)), src[at:]) {
				return false
			}
		}
		if total != uint64(length) {
			return false
		}
		for i := range buf {
			x := uint64(off) + uint64(i)
			slot, local := int(x/ss%w), x/ss/w*ss+x%ss
			if FileOffsetOf(l, slot, local) != x || buf[i] != tag(slot, local) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the per-server local sizes of a file sum to the file size.
func TestLocalSizeSumsProperty(t *testing.T) {
	f := func(stripePow uint8, width8 uint8, size uint32) bool {
		stripe := uint32(1) << (stripePow%10 + 1)
		width := int(width8%7) + 1
		l := layoutFor(stripe, width)
		var total uint64
		for slot := 0; slot < width; slot++ {
			total += LocalSize(l, uint64(size), slot)
		}
		return total == uint64(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Replica layouts: chained placement puts replica r of slot s on server
// (s+r) mod width, never colliding with a lower replica of the same slot
// while replicas <= width, and replica handles never collide with file
// handles or each other.
func TestReplicaPlacementAndHandles(t *testing.T) {
	l := layoutFor(100, 4)
	l.Replicas = 3
	for slot := 0; slot < 4; slot++ {
		seen := map[uint32]bool{}
		for r := 0; r < 3; r++ {
			server := ReplicaServer(l, slot, r)
			if server != uint32((slot+r)%4) {
				t.Fatalf("slot %d replica %d on server %d", slot, r, server)
			}
			if seen[server] {
				t.Fatalf("slot %d: replica collision on server %d", slot, server)
			}
			seen[server] = true
		}
	}
	handles := map[uint64]bool{}
	for _, h := range []uint64{1, 2, 1 << 40} {
		for r := 0; r < 3; r++ {
			rh := ReplicaHandle(h, r)
			if handles[rh] {
				t.Fatalf("handle collision at h=%d r=%d", h, r)
			}
			handles[rh] = true
			if r == 0 && rh != h {
				t.Fatalf("replica 0 handle changed: %d -> %d", h, rh)
			}
		}
	}
}
