package kernels

import (
	"encoding/binary"
)

func init() {
	Register("sum8", func() Kernel { return &sum8{} })
	Register("sum64", func() Kernel { return &sum64{} })
}

// sum8 is the paper's SUM benchmark: one addition per data item, where an
// item is a byte. Result: the total as a little-endian uint64.
type sum8 struct {
	total     uint64
	processed uint64
}

func (*sum8) Name() string             { return "sum8" }
func (*sum8) Configure([]byte) error   { return nil }
func (*sum8) ResultSize(uint64) uint64 { return 8 }

func (k *sum8) Process(chunk []byte) error {
	k.processed += uint64(len(chunk))
	k.total += sum8Bytes(chunk)
	return nil
}

// sum8Words is sum8's portable loop, which every GOARCH compiles and any
// GOARCH without a block loop (sum_amd64.s) runs on its own. It reads eight
// bytes per load and adds them in the four 16-bit lanes of an accumulator
// word: the even and the odd bytes of v, each masked to 0x00FF per lane, so
// one word adds at most 2·255 = 510 to a lane. sum8LaneWords words add at
// most 128·510 = 65 280 < 2¹⁶ = 65 536, so no lane can carry into its
// neighbour before the lanes are folded into the 64-bit total. Two
// accumulators take alternate words (the adds of one do not wait for the
// other's), which makes a block between folds 2·sum8LaneWords words.
const (
	sum8LaneMask  = 0x00FF00FF00FF00FF
	sum8LaneWords = 128
	sum8Block     = 2 * 8 * sum8LaneWords // bytes
)

func sum8Words(p []byte) uint64 {
	var t uint64
	for len(p) >= 32 {
		blk := p[:min(len(p), sum8Block)&^31]
		p = p[len(blk):]
		var a0, a1 uint64
		for len(blk) >= 32 {
			v0 := binary.LittleEndian.Uint64(blk)
			v1 := binary.LittleEndian.Uint64(blk[8:])
			v2 := binary.LittleEndian.Uint64(blk[16:])
			v3 := binary.LittleEndian.Uint64(blk[24:])
			a0 += v0&sum8LaneMask + (v0>>8)&sum8LaneMask
			a1 += v1&sum8LaneMask + (v1>>8)&sum8LaneMask
			a0 += v2&sum8LaneMask + (v2>>8)&sum8LaneMask
			a1 += v3&sum8LaneMask + (v3>>8)&sum8LaneMask
			blk = blk[32:]
		}
		t += foldLanes16(a0) + foldLanes16(a1)
	}
	for _, b := range p { // fewer than 32 bytes
		t += uint64(b)
	}
	return t
}

// foldLanes16 adds the four 16-bit lanes of a.
func foldLanes16(a uint64) uint64 {
	a = a&0x0000FFFF0000FFFF + (a>>16)&0x0000FFFF0000FFFF // two 32-bit lanes, each < 2¹⁷
	return a&0xFFFFFFFF + a>>32
}

func (k *sum8) Checkpoint() ([]byte, error) {
	s := NewState()
	s.PutInt64("total", int64(k.total))
	s.PutInt64("processed", int64(k.processed))
	return s.Encode(k.Name())
}

func (k *sum8) Restore(state []byte) error {
	s, err := DecodeState(k.Name(), state)
	if err != nil {
		return err
	}
	total, err := s.Int64("total")
	if err != nil {
		return err
	}
	processed, err := s.Int64("processed")
	if err != nil {
		return err
	}
	k.total = uint64(total)
	k.processed = uint64(processed)
	return nil
}

func (k *sum8) Result() ([]byte, error) {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, k.total)
	return out, nil
}

// Sum8Result decodes a sum8 kernel output.
func Sum8Result(out []byte) uint64 {
	if len(out) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(out)
}

// sum64 sums a stream of little-endian float64 elements. Result: the total
// as 8 bytes. Elements split across chunks are carried.
type sum64 struct {
	total     float64
	processed uint64
	c         carry
}

func (*sum64) Name() string             { return "sum64" }
func (*sum64) ResultSize(uint64) uint64 { return 8 }

func (k *sum64) Configure([]byte) error {
	k.c = carry{elem: 8}
	return nil
}

func (k *sum64) Process(chunk []byte) error {
	if k.c.elem == 0 {
		k.c = carry{elem: 8}
	}
	k.c.feed(chunk, func(whole []byte) {
		for i := 0; i+8 <= len(whole); i += 8 {
			k.total += f64le(whole[i:])
		}
	})
	k.processed += uint64(len(chunk))
	return nil
}

func (k *sum64) Checkpoint() ([]byte, error) {
	s := NewState()
	s.PutFloat64("total", k.total)
	s.PutInt64("processed", int64(k.processed))
	s.PutBytes("carry", k.c.buf)
	return s.Encode(k.Name())
}

func (k *sum64) Restore(state []byte) error {
	s, err := DecodeState(k.Name(), state)
	if err != nil {
		return err
	}
	if k.total, err = s.Float64("total"); err != nil {
		return err
	}
	processed, err := s.Int64("processed")
	if err != nil {
		return err
	}
	k.processed = uint64(processed)
	cb, err := s.Bytes("carry")
	if err != nil {
		return err
	}
	k.c = carry{elem: 8, buf: append([]byte(nil), cb...)}
	return nil
}

func (k *sum64) Result() ([]byte, error) {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, f64bits(k.total))
	return out, nil
}

// Sum64Result decodes a sum64 kernel output.
func Sum64Result(out []byte) float64 {
	if len(out) < 8 {
		return 0
	}
	return f64le(out)
}
