package kernels

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"dosas/internal/wire"
)

func init() {
	Register("gaussian2d", func() Kernel { return &gaussian2d{} })
}

// GaussianParams encodes parameters for the gaussian2d kernel: the image
// row width in pixels, and whether to emit the full filtered image (true)
// or only a 29-byte digest (false). Digest mode is what the scheduling
// experiments use — active storage only pays off when h(x) ≪ x, and the
// paper's cost model assumes a small result transfer g(h(x)).
func GaussianParams(width uint32, emitFull bool) []byte {
	var c wire.Codec
	c.U32(&width)
	c.Bool(&emitFull)
	return c.Buf()
}

// GaussianParamsHalo is GaussianParams plus explicit halo rows: top is
// used as the row above the band's first row and bottom as the row below
// its last (instead of edge replication). Halos let a band of rows be
// filtered in isolation yet bit-exactly match the same rows of a whole-
// image filter — the mechanism behind exact Gaussian filtering of striped
// images. Either halo may be nil to keep replication on that edge.
func GaussianParamsHalo(width uint32, emitFull bool, top, bottom []byte) []byte {
	var c wire.Codec
	c.U32(&width)
	c.Bool(&emitFull)
	c.Bytes(&top)
	c.Bytes(&bottom)
	return c.Buf()
}

// gaussian2d applies the paper's 2-D Gaussian filter benchmark: a 3×3
// convolution with kernel [[1,2,1],[2,4,2],[1,2,1]]/16 over an 8-bit
// grayscale image. The paper's Table III counts 9 multiplications, 9
// additions and 1 division per pixel; this code does not imitate that
// count (reproducing Table III's timing is RuntimeConfig.Pace's job) but
// computes the same integer by the filter's separable form, see filterRow.
//
// The stream is rows of width pixels, one byte each. Border pixels are
// handled by edge replication. In digest mode the result is
// ⟨rows u64, sum u64, min u8, max u8, crc32 u32⟩ of the filtered interior;
// in full mode the filtered image itself.
type gaussian2d struct {
	width    int
	emitFull bool
	topHalo  []byte // optional explicit neighbour above the first row
	botHalo  []byte // optional explicit neighbour below the last row

	rowPartial []byte // bytes of the row currently being assembled
	prev, cur  []byte // last two complete rows; nil until seen
	rows       uint64 // complete rows consumed

	// Scratch reused from row to row, so a steady-state Process allocates
	// nothing; none of it is checkpointed.
	spare []byte   // the row buffer the next complete row is copied into
	vsum  []uint16 // filterRow's vertical pass
	out   []byte   // filterRow's filtered row

	// Digest accumulators over filtered pixels.
	fSum    uint64
	fMin    uint8
	fMax    uint8
	fCRC    uint32
	fPixels uint64
	full    []byte // filtered image when emitFull
	haveMin bool
}

func (*gaussian2d) Name() string { return "gaussian2d" }

func (k *gaussian2d) ResultSize(inputBytes uint64) uint64 {
	if k.emitFull {
		return inputBytes
	}
	return 29
}

func (k *gaussian2d) Configure(params []byte) error {
	if len(params) == 0 {
		return fmt.Errorf("kernels: gaussian2d requires GaussianParams")
	}
	var w uint32
	d := wire.NewDecoder(params)
	d.U32(&w)
	d.Bool(&k.emitFull)
	if err := d.Err(); err != nil {
		return fmt.Errorf("kernels: gaussian2d params: %w", err)
	}
	if w < 3 {
		return fmt.Errorf("kernels: gaussian2d width %d below minimum 3", w)
	}
	k.width = int(w)
	// Optional halo rows (GaussianParamsHalo).
	if d.Remaining() > 0 {
		var top, bottom []byte
		d.Bytes(&top)
		d.Bytes(&bottom)
		if err := d.Err(); err != nil {
			return fmt.Errorf("kernels: gaussian2d halo params: %w", err)
		}
		if len(top) > 0 {
			if len(top) != k.width {
				return fmt.Errorf("kernels: gaussian2d top halo has %d bytes, want %d", len(top), k.width)
			}
			k.topHalo = append([]byte(nil), top...)
		}
		if len(bottom) > 0 {
			if len(bottom) != k.width {
				return fmt.Errorf("kernels: gaussian2d bottom halo has %d bytes, want %d", len(bottom), k.width)
			}
			k.botHalo = append([]byte(nil), bottom...)
		}
	}
	return nil
}

func (k *gaussian2d) Process(chunk []byte) error {
	if k.width == 0 {
		return fmt.Errorf("kernels: gaussian2d not configured")
	}
	for len(chunk) > 0 {
		if len(k.rowPartial) == 0 && len(chunk) >= k.width {
			k.pushRow(chunk[:k.width]) // a whole row inside the chunk: no assembly
			chunk = chunk[k.width:]
			continue
		}
		need := k.width - len(k.rowPartial)
		if need > len(chunk) {
			k.rowPartial = append(k.rowPartial, chunk...)
			return nil
		}
		k.rowPartial = append(k.rowPartial, chunk[:need]...)
		chunk = chunk[need:]
		k.pushRow(k.rowPartial)
		k.rowPartial = k.rowPartial[:0]
	}
	return nil
}

// pushRow advances the 3-row window: arrival of row N lets row N-1 be
// filtered (above = row N-2, replicated at the top edge). The final row is
// flushed by Result with a replicated row below. row is copied (the caller's
// chunk must not be retained) into whichever of the three row buffers holds
// neither of the two rows still needed.
func (k *gaussian2d) pushRow(row []byte) {
	k.rows++
	r := append(k.spare[:0], row...)
	k.spare = nil // r owns that buffer now
	if k.cur == nil {
		k.cur = r
		return
	}
	above := k.prev
	if above == nil {
		above = k.topHalo // halo from the band above, when supplied
		if above == nil {
			above = k.cur // top edge: replicate the first row upward
		}
	}
	k.filterRow(above, k.cur, r)
	k.spare = k.prev
	k.prev = k.cur
	k.cur = r
}

// filterRow convolves the middle row using rows above and below, with
// column edge replication, and folds the filtered pixels into the digest.
//
// The 3×3 kernel is the outer product [1,2,1]ᵀ·[1,2,1], so the nine-term
// sum is computed in two passes: v[x] = above[x] + 2·mid[x] + below[x]
// (≤ 4·255 = 1020), then v[x-1] + 2·v[x] + v[x+1] (≤ 4080, well inside a
// uint16). That is the same nine products added in another order — integer
// addition is exact, so the sum and its quotient by 16 are identical to the
// direct form's. Edge replication makes the missing neighbour of the first
// and last pixel the pixel's own column, hence 3·v[0] + v[1] and
// v[w-2] + 3·v[w-1]; they are done apart so the interior loop has no clamp.
func (k *gaussian2d) filterRow(above, mid, below []byte) {
	w := k.width
	if len(k.vsum) != w {
		k.vsum = make([]uint16, w)
		k.out = make([]byte, w)
	}
	v, out := k.vsum[:w], k.out[:w]
	above, mid, below = above[:w], mid[:w], below[:w]
	for x := range v {
		v[x] = uint16(above[x]) + 2*uint16(mid[x]) + uint16(below[x])
	}

	first := uint8((3*v[0] + v[1]) / 16)
	last := uint8((v[w-2] + 3*v[w-1]) / 16)
	out[0], out[w-1] = first, last
	sum := uint64(first) + uint64(last)
	lo, hi := min(first, last), max(first, last)
	// Three equal-length views: v[x-1], v[x], v[x+1] for interior x.
	vl, vm, vr, in := v[:w-2], v[1:w-1], v[2:], out[1:w-1]
	vm, vr, in = vm[:len(vl)], vr[:len(vl)], in[:len(vl)]
	for i := range vl {
		p := uint8((vl[i] + 2*vm[i] + vr[i]) / 16)
		in[i] = p
		sum += uint64(p)
		lo, hi = min(lo, p), max(hi, p)
	}

	k.fSum += sum
	if !k.haveMin || lo < k.fMin {
		k.fMin = lo
		k.haveMin = true
	}
	if hi > k.fMax {
		k.fMax = hi
	}
	k.fPixels += uint64(w)
	k.fCRC = crc32.Update(k.fCRC, crc32.IEEETable, out)
	if k.emitFull {
		k.full = append(k.full, out...)
	}
}

func (k *gaussian2d) Checkpoint() ([]byte, error) {
	s := NewState()
	s.PutInt64("width", int64(k.width))
	if k.emitFull {
		s.PutInt64("emitFull", 1)
	} else {
		s.PutInt64("emitFull", 0)
	}
	s.PutBytes("topHalo", k.topHalo)
	s.PutBytes("botHalo", k.botHalo)
	s.PutBytes("rowPartial", k.rowPartial)
	s.PutBytes("prev", k.prev)
	s.PutBytes("cur", k.cur)
	s.PutInt64("rows", int64(k.rows))
	s.PutInt64("fSum", int64(k.fSum))
	s.PutInt64("fMin", int64(k.fMin))
	s.PutInt64("fMax", int64(k.fMax))
	s.PutInt64("fCRC", int64(k.fCRC))
	s.PutInt64("fPixels", int64(k.fPixels))
	if k.haveMin {
		s.PutInt64("haveMin", 1)
	} else {
		s.PutInt64("haveMin", 0)
	}
	s.PutBytes("full", k.full)
	return s.Encode(k.Name())
}

func (k *gaussian2d) Restore(state []byte) error {
	s, err := DecodeState(k.Name(), state)
	if err != nil {
		return err
	}
	geti := func(name string) int64 {
		if err != nil {
			return 0
		}
		var v int64
		v, err = s.Int64(name)
		return v
	}
	getb := func(name string) []byte {
		if err != nil {
			return nil
		}
		var v []byte
		v, err = s.Bytes(name)
		return append([]byte(nil), v...)
	}
	k.width = int(geti("width"))
	k.emitFull = geti("emitFull") != 0
	topHalo := getb("topHalo")
	botHalo := getb("botHalo")
	k.rowPartial = getb("rowPartial")
	prev := getb("prev")
	cur := getb("cur")
	k.rows = uint64(geti("rows"))
	k.fSum = uint64(geti("fSum"))
	k.fMin = uint8(geti("fMin"))
	k.fMax = uint8(geti("fMax"))
	k.fCRC = uint32(geti("fCRC"))
	k.fPixels = uint64(geti("fPixels"))
	k.haveMin = geti("haveMin") != 0
	k.full = getb("full")
	if err != nil {
		return err
	}
	// A checkpoint arrives in a client's request: filterRow indexes rows by
	// width, so a row of any other length must stop here.
	rowOK := func(r []byte) bool { return len(r) == 0 || len(r) == k.width }
	if k.width < 3 || len(k.rowPartial) >= k.width ||
		!rowOK(prev) || !rowOK(cur) || !rowOK(topHalo) || !rowOK(botHalo) {
		return fmt.Errorf("%w: gaussian2d row geometry", ErrStateCorrupt)
	}
	// Empty slices round-trip as nil rows.
	if len(prev) == 0 {
		prev = nil
	}
	if len(cur) == 0 {
		cur = nil
	}
	if len(topHalo) == 0 {
		topHalo = nil
	}
	if len(botHalo) == 0 {
		botHalo = nil
	}
	k.prev, k.cur = prev, cur
	k.topHalo, k.botHalo = topHalo, botHalo
	return nil
}

func (k *gaussian2d) Result() ([]byte, error) {
	// Flush the final row: filter cur against the bottom halo when
	// supplied, else a replicated row below.
	if k.cur != nil {
		above := k.prev
		if above == nil {
			above = k.topHalo
			if above == nil {
				above = k.cur // single-row band with no halo
			}
		}
		below := k.botHalo
		if below == nil {
			below = k.cur
		}
		k.filterRow(above, k.cur, below)
	}
	k.prev, k.cur = nil, nil
	if k.emitFull {
		return k.full, nil
	}
	out := make([]byte, 29)
	binary.LittleEndian.PutUint64(out[0:8], k.fPixels)
	binary.LittleEndian.PutUint64(out[8:16], k.fSum)
	out[16] = k.fMin
	out[17] = k.fMax
	binary.LittleEndian.PutUint32(out[18:22], k.fCRC)
	// Bytes 22..29 reserved (row count) for forward compatibility.
	binary.LittleEndian.PutUint32(out[22:26], uint32(k.rows))
	return out, nil
}

// GaussianDigest is the decoded digest-mode result of gaussian2d.
type GaussianDigest struct {
	Pixels   uint64
	Sum      uint64
	Min, Max uint8
	CRC      uint32
	Rows     uint32
}

// DecodeGaussianDigest parses a digest-mode gaussian2d output.
func DecodeGaussianDigest(out []byte) (GaussianDigest, error) {
	if len(out) < 29 {
		return GaussianDigest{}, fmt.Errorf("kernels: gaussian digest too short (%d bytes)", len(out))
	}
	return GaussianDigest{
		Pixels: binary.LittleEndian.Uint64(out[0:8]),
		Sum:    binary.LittleEndian.Uint64(out[8:16]),
		Min:    out[16],
		Max:    out[17],
		CRC:    binary.LittleEndian.Uint32(out[18:22]),
		Rows:   binary.LittleEndian.Uint32(out[22:26]),
	}, nil
}
