package pfs

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
)

// viewAll reads up to n bytes of h from off through successive ReadViews
// with a chunk buffer of chunk bytes — the loop Runtime.feed runs — and
// returns their concatenation and how many of the views were in place. It
// fails the test if a view crosses an extent boundary or outgrows its
// chunk.
func viewAll(t testing.TB, s Store, h, off uint64, n, chunk int) ([]byte, int) {
	t.Helper()
	buf := make([]byte, chunk)
	var out []byte
	inPlace := 0
	for len(out) < n {
		pos := off + uint64(len(out))
		v, err := ReadView(s, h, buf[:min(chunk, n-len(out))], pos)
		if err != nil {
			t.Fatalf("ReadView(%d, %d): %v", h, pos, err)
		}
		b := v.Bytes()
		if es, ok := s.(*ExtentStore); ok && len(b) > 0 {
			if first, last := int64(pos)/es.ext, (int64(pos)+int64(len(b))-1)/es.ext; first != last {
				t.Fatalf("view [%d,+%d) crosses extents %d..%d", pos, len(b), first, last)
			}
		}
		if len(b) > chunk {
			t.Fatalf("view of %d bytes from a %d-byte chunk", len(b), chunk)
		}
		if v.e != nil {
			inPlace++
		}
		out = append(out, b...)
		v.Release()
		if len(b) == 0 {
			break
		}
	}
	return out, inPlace
}

// checkView fails unless viewing [off, off+n) of h yields exactly the bytes
// ReadAt returns for it. It returns the number of in-place views.
func checkView(t testing.TB, s Store, h, off uint64, n, chunk int) int {
	t.Helper()
	want := make([]byte, n)
	k, err := s.ReadAt(h, want, off)
	if err != nil {
		t.Fatalf("ReadAt(%d, %d, +%d): %v", h, off, n, err)
	}
	got, inPlace := viewAll(t, s, h, off, n, chunk)
	if !bytes.Equal(got, want[:k]) {
		t.Fatalf("views of [%d,+%d) (%d bytes) differ from ReadAt (%d bytes)", off, n, len(got), k)
	}
	return inPlace
}

// TestExtentViewMatchesReadAt: views are byte-identical to ReadAt over
// full, short and missing extent files, across extent boundaries and the
// stream end, and after a truncate and a regrow; the ranges a whole extent
// file holds are lent in place, and Close unmaps every mapping.
func TestExtentViewMatchesReadAt(t *testing.T) {
	for _, ext := range []int{4 << 10, 16 << 10, 64 << 10} {
		es, err := NewExtentStore(ExtentConfig{Dir: t.TempDir(), ExtentSize: int64(ext), FDCacheSize: 3})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(ext)))
		write := func(off, n int) {
			p := make([]byte, n)
			rng.Read(p)
			if _, err := es.WriteAt(1, p, uint64(off)); err != nil {
				t.Fatal(err)
			}
		}
		// Extent 0 full, extent 1 a short file (a hole after it), extent 2
		// missing, extent 3 a short last file that starts with a hole.
		write(0, ext+ext/2)
		write(3*ext+100, 200)
		size := 3*ext + 300
		offs := []int{0, 1, ext/2 - 3, ext - 1, ext, ext + ext/2 - 1, ext + ext/2, 2*ext + 5, 3 * ext, size - 1, size, size + 10}
		lens := []int{1, 100, ext - 1, ext, 2*ext + 7, 5 * ext}
		for _, off := range offs {
			for _, n := range lens {
				for _, chunk := range []int{n, 1000} {
					checkView(t, es, 1, uint64(off), n, chunk)
				}
			}
		}
		if got := checkView(t, es, 1, 0, ext, ext); runtime.GOOS == "linux" && got != 1 {
			t.Fatalf("extent %d: a whole full extent took %d in-place views, want 1", ext, got)
		}
		if got := checkView(t, es, 1, uint64(ext), ext, ext); got != 0 {
			t.Fatalf("extent %d: the short extent file was lent in place (%d views)", ext, got)
		}

		// Truncate inside extent 0, then regrow the stream past it from a
		// later extent — extent 0 stays a short file, now with a hole after
		// it, and a view must not reach past the cut — and then regrow
		// extent 0 itself past its old length.
		if err := es.Truncate(1, uint64(ext/4)); err != nil {
			t.Fatal(err)
		}
		checkView(t, es, 1, 0, 2*ext, ext)
		write(2*ext+10, 20)
		checkView(t, es, 1, 0, 3*ext, ext)
		write(ext/8, ext+30)
		if got := checkView(t, es, 1, 0, ext, ext); runtime.GOOS == "linux" && got != 1 {
			t.Fatalf("extent %d: regrown extent 0 took %d in-place views, want 1", ext, got)
		}
		checkView(t, es, 1, 0, 3*ext, 1000)

		// MemStore takes the copy path, with the same bytes.
		mem := NewMemStore()
		p := make([]byte, 3*ext)
		rng.Read(p)
		mem.WriteAt(1, p, 7)
		checkView(t, mem, 1, 0, 4*ext, ext)

		if err := es.Close(); err != nil {
			t.Fatal(err)
		}
		if got := es.MappedExtents(); got != 0 {
			t.Fatalf("extent %d: %d mappings left after Close", ext, got)
		}
	}
}

// TestExtentViewPinsAcrossEviction: a view in flight keeps its extent
// mapped while the fd cache evicts and Remove invalidates around it; the
// mapping goes when the view is released.
func TestExtentViewPinsAcrossEviction(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("extent views are copies off Linux")
	}
	es, err := NewExtentStore(ExtentConfig{Dir: t.TempDir(), ExtentSize: 4096, FDCacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	want := bytes.Repeat([]byte{0xA5}, 4096)
	es.WriteAt(1, want, 0)
	v, err := ReadView(es, 1, make([]byte, 4096), 0)
	if err != nil || v.e == nil {
		t.Fatalf("view = %+v, %v; want an in-place view", v, err)
	}
	es.WriteAt(2, []byte("other"), 0) // evicts nothing: handle 1 is pinned
	if err := es.Remove(1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v.Bytes(), want) {
		t.Fatal("pinned view changed under eviction and Remove")
	}
	if got := es.MappedExtents(); got != 1 {
		t.Fatalf("%d mappings while the view is held, want 1", got)
	}
	v.Release()
	if got := es.MappedExtents(); got != 0 {
		t.Fatalf("%d mappings after the last release, want 0", got)
	}
}

// TestFDCacheInvalidateHandleTouchesOnlyItsHandle: Remove drops exactly
// the removed handle's descriptors, through the per-handle index.
func TestFDCacheInvalidateHandleTouchesOnlyItsHandle(t *testing.T) {
	es, err := NewExtentStore(ExtentConfig{Dir: t.TempDir(), ExtentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	for h := uint64(1); h <= 3; h++ {
		if _, err := es.WriteAt(h, make([]byte, 200), 0); err != nil { // four extents each
			t.Fatal(err)
		}
	}
	if got := es.fds.len(); got != 12 {
		t.Fatalf("%d cached descriptors, want 12", got)
	}
	if err := es.Remove(2); err != nil {
		t.Fatal(err)
	}
	if got := es.fds.len(); got != 8 {
		t.Fatalf("%d cached descriptors after Remove, want 8", got)
	}
	linked := func(h uint64) (n int) {
		for e := es.fds.handles[h]; e != nil; e = e.next {
			n++
		}
		return n
	}
	if linked(1) != 4 || linked(2) != 0 || linked(3) != 4 {
		t.Fatalf("per-handle lists hold %d, %d, %d entries after Remove(2), want 4, 0, 4", linked(1), linked(2), linked(3))
	}
}

// FuzzExtentView drives a random sequence of writes, truncates and
// removes against an extent store of 4–64 KiB extents and checks after
// each view op that views of a random range, read in random-sized chunks,
// are byte-identical to ReadAt. The seed corpus runs in every `go test`.
func FuzzExtentView(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 255, 255, 2, 0, 0, 255, 255, 0, 40})
	f.Add([]byte{2, 0, 0, 16, 0, 128, 0, 200, 0, 0, 64, 2, 0, 0, 100, 255, 1, 20, 1, 30, 0, 0, 0, 0, 50, 0, 10, 2, 0, 0, 255, 255, 9})
	f.Add([]byte{4, 0, 10, 0, 255, 64, 0, 200, 0, 80, 0, 2, 50, 0, 128, 0, 1, 40, 0, 0, 0, 2, 0, 0, 255, 255, 77, 3, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 200, 0, 8, 0, 0, 60, 0, 20, 0, 2, 100, 0, 255, 255, 3, 1, 0, 0, 0, 0, 0, 2, 0, 0, 255, 255, 1})
	// 16 KiB extents: fill and view extent 0, cut it to 1 KiB, regrow the
	// stream from extent 2, view all three.
	f.Add([]byte{2, 0, 0, 0, 0, 0x40, 0, 2, 0, 0, 0, 0x40, 0, 1, 0, 0x04, 0, 0, 0, 0, 0x0A, 0x80, 0x14, 0, 0, 2, 0, 0, 0, 0xC0, 255})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		ext := 4 << 10 << (prog[0] % 5)
		span := 4 * ext // offsets and lengths range over four extents
		es, err := NewExtentStore(ExtentConfig{Dir: t.TempDir(), ExtentSize: int64(ext), FDCacheSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			es.Close()
			if got := es.MappedExtents(); got != 0 {
				t.Fatalf("%d mappings left after Close", got)
			}
		}()
		scale := func(b []byte) int { return int(binary.LittleEndian.Uint16(b)) * span / 65536 }
		for i, op := 0, prog[1:]; len(op) >= 6; i, op = i+1, op[6:] {
			off, n := scale(op[1:3]), scale(op[3:5])
			switch op[0] % 4 {
			case 0:
				p := make([]byte, n)
				rand.New(rand.NewSource(int64(i))).Read(p)
				if _, err := es.WriteAt(1, p, uint64(off)); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := es.Truncate(1, uint64(off)); err != nil {
					t.Fatal(err)
				}
			case 2:
				checkView(t, es, 1, uint64(off), n, max(64, int(op[5])*ext/128))
			case 3:
				if err := es.Remove(1); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkView(t, es, 1, 0, span+ext, ext)
	})
}
