package kernels

import (
	"fmt"

	"dosas/internal/wire"
)

func init() {
	Register("downsample", func() Kernel { return &downsample{} })
}

// DownsampleParams encodes parameters for the downsample kernel: the
// decimation factor (every group of factor consecutive float64 elements is
// replaced by its mean).
func DownsampleParams(factor uint32) []byte {
	var c wire.Codec
	c.U32(&factor)
	return c.Buf()
}

// downsample reduces a float64 stream by averaging consecutive groups of
// `factor` elements. Unlike the scalar reductions, its output grows with
// the input — h(x) = x/factor — which exercises the scheduler's result-
// transfer term g(h(x)) at intermediate ratios.
type downsample struct {
	factor   uint32
	groupSum float64
	groupN   uint32
	out      []byte
	c        carry
}

func (*downsample) Name() string { return "downsample" }

func (k *downsample) ResultSize(inputBytes uint64) uint64 {
	if k.factor == 0 {
		return inputBytes
	}
	return inputBytes / uint64(k.factor)
}

func (k *downsample) Configure(params []byte) error {
	if len(params) == 0 {
		return fmt.Errorf("kernels: downsample requires DownsampleParams")
	}
	var f uint32
	d := wire.NewDecoder(params)
	d.U32(&f)
	if err := d.Err(); err != nil {
		return fmt.Errorf("kernels: downsample params: %w", err)
	}
	if f == 0 {
		return fmt.Errorf("kernels: downsample factor must be positive")
	}
	k.factor = f
	k.c = carry{elem: 8}
	return nil
}

func (k *downsample) Process(chunk []byte) error {
	if k.factor == 0 {
		return fmt.Errorf("kernels: downsample not configured")
	}
	k.c.feed(chunk, func(whole []byte) {
		for i := 0; i+8 <= len(whole); i += 8 {
			k.groupSum += f64le(whole[i:])
			k.groupN++
			if k.groupN == k.factor {
				k.out = putF64(k.out, k.groupSum/float64(k.factor))
				k.groupSum = 0
				k.groupN = 0
			}
		}
	})
	return nil
}

func (k *downsample) Checkpoint() ([]byte, error) {
	s := NewState()
	s.PutInt64("factor", int64(k.factor))
	s.PutFloat64("groupSum", k.groupSum)
	s.PutInt64("groupN", int64(k.groupN))
	s.PutBytes("out", k.out)
	s.PutBytes("carry", k.c.buf)
	return s.Encode(k.Name())
}

func (k *downsample) Restore(state []byte) error {
	s, err := DecodeState(k.Name(), state)
	if err != nil {
		return err
	}
	factor, err := s.Int64("factor")
	if err != nil {
		return err
	}
	k.factor = uint32(factor)
	if k.groupSum, err = s.Float64("groupSum"); err != nil {
		return err
	}
	groupN, err := s.Int64("groupN")
	if err != nil {
		return err
	}
	k.groupN = uint32(groupN)
	out, err := s.Bytes("out")
	if err != nil {
		return err
	}
	k.out = append([]byte(nil), out...)
	cb, err := s.Bytes("carry")
	if err != nil {
		return err
	}
	k.c = carry{elem: 8, buf: append([]byte(nil), cb...)}
	return nil
}

func (k *downsample) Result() ([]byte, error) {
	// A trailing partial group averages over the elements it has.
	if k.groupN > 0 {
		k.out = putF64(k.out, k.groupSum/float64(k.groupN))
		k.groupSum = 0
		k.groupN = 0
	}
	return k.out, nil
}

// DownsampleResult decodes a downsample output into float64 samples.
func DownsampleResult(out []byte) []float64 {
	vs := make([]float64, 0, len(out)/8)
	for i := 0; i+8 <= len(out); i += 8 {
		vs = append(vs, f64le(out[i:]))
	}
	return vs
}
