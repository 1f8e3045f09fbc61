package kernels

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
)

// The references below are the kernels as they were before the
// word-at-a-time sum8 and the separable gaussian2d: one byte, and one
// nine-term pixel, at a time. They exist to be compared against — Result
// and Checkpoint bytes must not differ on any input.

// refSum8 is the scalar SUM loop.
type refSum8 struct{ total, processed uint64 }

func (k *refSum8) Process(chunk []byte) {
	for _, b := range chunk {
		k.total += uint64(b)
	}
	k.processed += uint64(len(chunk))
}

// as returns the production kernel holding the reference's state, so the
// two sides share one Checkpoint and Result encoding.
func (k *refSum8) as() *sum8 { return &sum8{total: k.total, processed: k.processed} }

// refGaussian is the direct 3×3 filter: a fresh slice per row, the nine
// products per pixel, the digest folded in a separate pass.
type refGaussian struct {
	width            int
	emitFull         bool
	topHalo, botHalo []byte

	rowPartial []byte
	prev, cur  []byte
	rows       uint64

	fSum, fPixels uint64
	fMin, fMax    uint8
	fCRC          uint32
	full          []byte
	haveMin       bool
}

// newRefGaussian configures the reference as k is configured.
func newRefGaussian(k *gaussian2d) *refGaussian {
	return &refGaussian{width: k.width, emitFull: k.emitFull, topHalo: k.topHalo, botHalo: k.botHalo}
}

func (k *refGaussian) Process(chunk []byte) {
	for len(chunk) > 0 {
		need := k.width - len(k.rowPartial)
		if need > len(chunk) {
			k.rowPartial = append(k.rowPartial, chunk...)
			return
		}
		row := append(k.rowPartial, chunk[:need]...)
		chunk = chunk[need:]
		k.rowPartial = k.rowPartial[:0]
		k.pushRow(row)
	}
}

func (k *refGaussian) pushRow(row []byte) {
	k.rows++
	r := append([]byte(nil), row...)
	if k.cur == nil {
		k.cur = r
		return
	}
	k.filterRow(k.above(), k.cur, r)
	k.prev = k.cur
	k.cur = r
}

func (k *refGaussian) above() []byte {
	switch {
	case k.prev != nil:
		return k.prev
	case k.topHalo != nil:
		return k.topHalo
	}
	return k.cur
}

func (k *refGaussian) filterRow(above, mid, below []byte) {
	w := k.width
	out := make([]byte, w)
	for x := 0; x < w; x++ {
		xl, xr := x-1, x+1
		if xl < 0 {
			xl = 0
		}
		if xr >= w {
			xr = w - 1
		}
		acc := 1*uint32(above[xl]) + 2*uint32(above[x]) + 1*uint32(above[xr]) +
			2*uint32(mid[xl]) + 4*uint32(mid[x]) + 2*uint32(mid[xr]) +
			1*uint32(below[xl]) + 2*uint32(below[x]) + 1*uint32(below[xr])
		out[x] = uint8(acc / 16)
	}
	for _, p := range out {
		k.fSum += uint64(p)
		if !k.haveMin || p < k.fMin {
			k.fMin = p
			k.haveMin = true
		}
		if p > k.fMax {
			k.fMax = p
		}
	}
	k.fPixels += uint64(len(out))
	k.fCRC = crc32.Update(k.fCRC, crc32.IEEETable, out)
	if k.emitFull {
		k.full = append(k.full, out...)
	}
}

// finish flushes the last row as gaussian2d.Result does.
func (k *refGaussian) finish() {
	if k.cur != nil {
		below := k.botHalo
		if below == nil {
			below = k.cur
		}
		k.filterRow(k.above(), k.cur, below)
	}
	k.prev, k.cur = nil, nil
}

// as returns the production kernel holding the reference's state (the
// scratch buffers, which are not state, stay empty).
func (k *refGaussian) as() *gaussian2d {
	return &gaussian2d{
		width: k.width, emitFull: k.emitFull, topHalo: k.topHalo, botHalo: k.botHalo,
		rowPartial: k.rowPartial, prev: k.prev, cur: k.cur, rows: k.rows,
		fSum: k.fSum, fMin: k.fMin, fMax: k.fMax, fCRC: k.fCRC, fPixels: k.fPixels,
		full: k.full, haveMin: k.haveMin,
	}
}

// sameBytes compares what one Kernel method returned on the two sides.
func sameBytes(t *testing.T, what string, got, want Kernel, f func(Kernel) ([]byte, error)) {
	t.Helper()
	g, err := f(got)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	w, err := f(want)
	if err != nil {
		t.Fatalf("%s (reference): %v", what, err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s differs from the scalar reference:\n got  %x\n want %x", what, clip(g), clip(w))
	}
}

func clip(b []byte) []byte {
	if len(b) > 96 {
		return b[:96]
	}
	return b
}

func checkpointOf(k Kernel) ([]byte, error) { return k.Checkpoint() }
func resultOf(k Kernel) ([]byte, error)     { return k.Result() }

// diffSum8 feeds the same pieces to both sides and compares the checkpoint
// after every piece and the result at the end.
func diffSum8(t *testing.T, pieces ...[]byte) {
	t.Helper()
	k, ref := &sum8{}, &refSum8{}
	for i, p := range pieces {
		if err := k.Process(p); err != nil {
			t.Fatal(err)
		}
		ref.Process(p)
		sameBytes(t, fmt.Sprintf("checkpoint after piece %d (%d bytes)", i, len(p)), k, ref.as(), checkpointOf)
	}
	sameBytes(t, "result", k, ref.as(), resultOf)
}

func TestSum8MatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	random := make([]byte, 1<<20+8)
	rng.Read(random)
	ones := bytes.Repeat([]byte{0xFF}, 1<<20+8)

	for _, src := range [][]byte{ones, random} {
		// Every length from nothing to 1100, at every alignment of the
		// first load: the scalar tail, the 32-byte steps, a short block.
		for off := 0; off < 8; off++ {
			for n := 0; n <= 1100; n++ {
				diffSum8(t, src[off:off+n])
			}
		}
		// Around the lane folds — all-0xFF fills every 16-bit lane to its
		// bound of 128·510 right before one — and the runtime's chunk ±1.
		for _, n := range []int{
			sum8Block - 33, sum8Block - 1, sum8Block, sum8Block + 1, sum8Block + 31, sum8Block + 32,
			2*sum8Block - 1, 2 * sum8Block, 2*sum8Block + 1, 3*sum8Block + 7,
			1<<20 - 1, 1 << 20, 1<<20 + 1,
		} {
			for _, off := range []int{0, 1, 7} {
				diffSum8(t, src[off:off+n])
			}
		}
		// A stream in uneven pieces, each crossing folds at its own phase.
		diffSum8(t, src[:1023], src[1023:1024], src[1024:3*1024+5], src[3*1024+5:1<<20])
	}
}

// sum8Path is one of sum8's summing loops, called directly; it adds the
// first covered(len(p)) bytes of p and reads no further.
type sum8Path struct {
	name    string
	sum     func(p []byte) uint64
	covered func(n int) int
}

// sum8Paths are the portable word loop, which every GOARCH compiles, and
// the GOARCH's block loop where it has one (sum8ArchPaths).
var sum8Paths = append([]sum8Path{{"words", sum8Words, func(n int) int { return n }}}, sum8ArchPaths...)

// Each of sum8's loops on its own against the scalar reference: every length
// to 256, each side of every 64-byte block up to the word loop's fourth lane
// fold and of each of those folds, at every start alignment within a cache
// line, on all-0xFF bytes (the word loop's lanes at their bound) and noise.
func TestSum8PathsMatchScalarReference(t *testing.T) {
	random := make([]byte, 4*sum8Block+2*64)
	rand.New(rand.NewSource(29)).Read(random)
	ones := bytes.Repeat([]byte{0xFF}, len(random))

	var lengths []int
	for n := 0; n <= 256; n++ {
		lengths = append(lengths, n)
	}
	for b := 5 * 64; b <= 4*sum8Block; b += 64 {
		lengths = append(lengths, b-1, b, b+1)
	}
	for f := sum8Block; f <= 4*sum8Block; f += sum8Block {
		lengths = append(lengths, f-33, f-32, f-31, f+31, f+32, f+33)
	}
	for name, src := range map[string][]byte{"ones": ones, "random": random} {
		// upTo[i] is the reference's total over src[:i].
		upTo := make([]uint64, len(src)+1)
		ref := &refSum8{}
		for i := range src {
			ref.Process(src[i : i+1])
			upTo[i+1] = ref.total
		}
		for _, path := range sum8Paths {
			for off := 0; off < 64; off++ {
				for _, n := range lengths {
					want := upTo[off+path.covered(n)] - upTo[off]
					if got := path.sum(src[off : off+n]); got != want {
						t.Fatalf("%s over %d %s bytes at offset %d: %d, want %d", path.name, n, name, off, got, want)
					}
				}
			}
		}
	}
}

// gaussianInputs are images of h rows chosen to reach the arithmetic's
// corners: saturated (every nine-term sum is 16·255), empty, a checkerboard
// (the largest neighbour differences) and noise.
func gaussianInputs(w, h int, rng *rand.Rand) map[string][]byte {
	n := w * h
	checker := make([]byte, n)
	for i := range checker {
		if (i/w+i%w)%2 == 0 {
			checker[i] = 0xFF
		}
	}
	noise := make([]byte, n)
	rng.Read(noise)
	return map[string][]byte{
		"ones":    bytes.Repeat([]byte{0xFF}, n),
		"zeros":   make([]byte, n),
		"checker": checker,
		"noise":   noise,
	}
}

func TestGaussianMatchesNineTermReference(t *testing.T) {
	for _, w := range []int{3, 4, 5, 4095, 4096, 4097} {
		t.Run(fmt.Sprintf("width%d", w), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(w)))
			top, bottom := make([]byte, w), make([]byte, w)
			rng.Read(top)
			rng.Read(bottom)
			for _, halo := range []bool{false, true} {
				for _, full := range []bool{false, true} {
					params := GaussianParams(uint32(w), full)
					if halo {
						params = GaussianParamsHalo(uint32(w), full, top, bottom)
					}
					for h := 1; h <= 5; h++ {
						for name, img := range gaussianInputs(w, h, rng) {
							label := fmt.Sprintf("halo=%v full=%v rows=%d %s", halo, full, h, name)
							diffGaussian(t, label, params, img, w)
						}
					}
				}
			}
		})
	}
}

// diffGaussian feeds img to both sides in pieces that split rows (a third
// of a row, then one and a half rows, then the rest), comparing the
// checkpoint after every piece and the result at the end.
func diffGaussian(t *testing.T, label string, params, img []byte, w int) {
	t.Helper()
	k := &gaussian2d{}
	if err := k.Configure(params); err != nil {
		t.Fatal(err)
	}
	ref := newRefGaussian(k)
	cuts := []int{w / 3, w/3 + w + w/2, len(img)}
	prev := 0
	for _, c := range cuts {
		c = max(prev, min(c, len(img)))
		if err := k.Process(img[prev:c]); err != nil {
			t.Fatal(err)
		}
		ref.Process(img[prev:c])
		sameBytes(t, fmt.Sprintf("%s: checkpoint at byte %d", label, c), k, ref.as(), checkpointOf)
		prev = c
	}
	ref.finish()
	sameBytes(t, label+": result", k, ref.as(), resultOf)
}

// Steady state means after the kernel's reused buffers exist: from the
// second chunk on, Process must not allocate.
func TestSteadyStateProcessDoesNotAllocate(t *testing.T) {
	chunk := make([]byte, 64<<10)
	rand.New(rand.NewSource(23)).Read(chunk)
	for _, tc := range []struct {
		op     string
		params []byte
	}{
		{"sum8", nil},
		{"gaussian2d", GaussianParams(1000, false)}, // rows straddle chunks
		{"count", []byte("needle")},
	} {
		k, err := Start(tc.op, tc.params, nil)
		if err != nil {
			t.Fatal(err)
		}
		process := func() {
			if err := k.Process(chunk); err != nil {
				t.Fatal(err)
			}
		}
		process()
		if n := testing.AllocsPerRun(20, process); n != 0 {
			t.Errorf("%s: %v allocations per steady-state Process, want 0", tc.op, n)
		}
	}
}

// A checkpoint is a client's bytes: one whose rows do not have the width it
// claims must be refused, not indexed.
func TestGaussianRestoreRejectsBadGeometry(t *testing.T) {
	for name, mutate := range map[string]func(*gaussian2d){
		"narrow":       func(k *gaussian2d) { k.width = 1 },
		"short cur":    func(k *gaussian2d) { k.cur = k.cur[:5] },
		"short prev":   func(k *gaussian2d) { k.prev = k.prev[:5] },
		"long partial": func(k *gaussian2d) { k.rowPartial = make([]byte, 8) },
		"short halo":   func(k *gaussian2d) { k.topHalo = []byte{1} },
	} {
		k := &gaussian2d{}
		if err := k.Configure(GaussianParams(8, false)); err != nil {
			t.Fatal(err)
		}
		if err := k.Process(make([]byte, 8*3+2)); err != nil {
			t.Fatal(err)
		}
		mutate(k)
		state, err := k.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := New("gaussian2d")
		if err := fresh.Restore(state); !errors.Is(err, ErrStateCorrupt) {
			t.Errorf("%s: Restore = %v, want ErrStateCorrupt", name, err)
		}
	}
}

// The count kernel searches the seam between two chunks apart from the
// chunk itself; overlapping matches and chunks shorter than the pattern are
// where the two searches could double-count or miss.
func TestPatternCountSeam(t *testing.T) {
	for _, tc := range []struct{ pattern, data string }{
		{"aaaa", "aaaaaaaaaaaaa"},
		{"abab", "abababababab"},
		{"needle", "needlneedleneedleeneedle"},
		{"a", "banana"},
		{"xy", "x"},
	} {
		want := runWhole(t, "count", []byte(tc.pattern), []byte(tc.data))
		for size := 1; size <= len(tc.data); size++ {
			got := runChunked(t, "count", []byte(tc.pattern), []byte(tc.data), []int{size})
			if !bytes.Equal(got, want) {
				t.Errorf("%q in %q by %d: count %d, want %d", tc.pattern, tc.data, size,
					CountResult(got), CountResult(want))
			}
		}
	}
}
