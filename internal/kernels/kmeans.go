package kernels

import (
	"encoding/binary"
	"fmt"
	"math"

	"dosas/internal/wire"
)

func init() {
	Register("kmeans1d", func() Kernel { return &kmeans1d{} })
}

// KMeansParams encodes parameters for the kmeans1d kernel: the cluster
// count k and the initial centroid range [lo, hi] (centroids start evenly
// spaced across it).
func KMeansParams(k uint32, lo, hi float64) []byte {
	var c wire.Codec
	c.U32(&k)
	c.F64(&lo)
	c.F64(&hi)
	return c.Buf()
}

// kmeans1d clusters a float64 stream with sequential (online) k-means:
// each sample moves its nearest centroid by the running-mean update
// c += (x − c)/n. One pass, deterministic given the parameters — the
// classic active-storage data-mining kernel (Riedel et al.; Son et al.).
// The result is k records of ⟨centroid f64, count u64⟩ sorted by centroid.
// Order-dependent, so it has no combiner: restrict requests to one
// storage node (stripe width 1).
type kmeans1d struct {
	centroids []float64
	counts    []uint64
	c         carry
}

func (*kmeans1d) Name() string { return "kmeans1d" }

func (k *kmeans1d) ResultSize(uint64) uint64 { return uint64(len(k.centroids)) * 16 }

func (k *kmeans1d) Configure(params []byte) error {
	if len(params) == 0 {
		return fmt.Errorf("kernels: kmeans1d requires KMeansParams")
	}
	var kk uint32
	var lo, hi float64
	d := wire.NewDecoder(params)
	d.U32(&kk)
	d.F64(&lo)
	d.F64(&hi)
	if err := d.Err(); err != nil {
		return fmt.Errorf("kernels: kmeans1d params: %w", err)
	}
	if kk == 0 || kk > 1<<16 {
		return fmt.Errorf("kernels: kmeans1d cluster count %d out of range", kk)
	}
	if !(lo < hi) {
		return fmt.Errorf("kernels: kmeans1d range [%g, %g] is empty", lo, hi)
	}
	k.centroids = make([]float64, kk)
	k.counts = make([]uint64, kk)
	if kk == 1 {
		k.centroids[0] = (lo + hi) / 2
	} else {
		step := (hi - lo) / float64(kk-1)
		for i := range k.centroids {
			k.centroids[i] = lo + float64(i)*step
		}
	}
	k.c = carry{elem: 8}
	return nil
}

func (k *kmeans1d) Process(chunk []byte) error {
	if len(k.centroids) == 0 {
		return fmt.Errorf("kernels: kmeans1d not configured")
	}
	k.c.feed(chunk, func(whole []byte) {
		for i := 0; i+8 <= len(whole); i += 8 {
			x := f64le(whole[i:])
			if math.IsNaN(x) {
				continue
			}
			best := 0
			bestD := math.Abs(x - k.centroids[0])
			for j := 1; j < len(k.centroids); j++ {
				if d := math.Abs(x - k.centroids[j]); d < bestD {
					best, bestD = j, d
				}
			}
			k.counts[best]++
			k.centroids[best] += (x - k.centroids[best]) / float64(k.counts[best])
		}
	})
	return nil
}

func (k *kmeans1d) Checkpoint() ([]byte, error) {
	s := NewState()
	raw := make([]byte, len(k.centroids)*16)
	for i := range k.centroids {
		binary.LittleEndian.PutUint64(raw[i*16:], math.Float64bits(k.centroids[i]))
		binary.LittleEndian.PutUint64(raw[i*16+8:], k.counts[i])
	}
	s.PutBytes("clusters", raw)
	s.PutBytes("carry", k.c.buf)
	return s.Encode(k.Name())
}

func (k *kmeans1d) Restore(state []byte) error {
	s, err := DecodeState(k.Name(), state)
	if err != nil {
		return err
	}
	raw, err := s.Bytes("clusters")
	if err != nil {
		return err
	}
	if len(raw)%16 != 0 || len(raw) == 0 {
		return fmt.Errorf("%w: kmeans1d clusters have %d bytes", ErrStateCorrupt, len(raw))
	}
	n := len(raw) / 16
	k.centroids = make([]float64, n)
	k.counts = make([]uint64, n)
	for i := 0; i < n; i++ {
		k.centroids[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*16:]))
		k.counts[i] = binary.LittleEndian.Uint64(raw[i*16+8:])
	}
	cb, err := s.Bytes("carry")
	if err != nil {
		return err
	}
	k.c = carry{elem: 8, buf: append([]byte(nil), cb...)}
	return nil
}

func (k *kmeans1d) Result() ([]byte, error) {
	// Sort by centroid for a canonical output.
	type cluster struct {
		c float64
		n uint64
	}
	cs := make([]cluster, len(k.centroids))
	for i := range cs {
		cs[i] = cluster{k.centroids[i], k.counts[i]}
	}
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].c < cs[j-1].c; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
	out := make([]byte, len(cs)*16)
	for i, c := range cs {
		binary.LittleEndian.PutUint64(out[i*16:], math.Float64bits(c.c))
		binary.LittleEndian.PutUint64(out[i*16+8:], c.n)
	}
	return out, nil
}

// KMeansCluster is one decoded kmeans1d output record.
type KMeansCluster struct {
	Centroid float64
	Count    uint64
}

// KMeansResult decodes a kmeans1d kernel output.
func KMeansResult(out []byte) ([]KMeansCluster, error) {
	if len(out)%16 != 0 {
		return nil, fmt.Errorf("kernels: kmeans result has %d bytes", len(out))
	}
	cs := make([]KMeansCluster, len(out)/16)
	for i := range cs {
		cs[i].Centroid = math.Float64frombits(binary.LittleEndian.Uint64(out[i*16:]))
		cs[i].Count = binary.LittleEndian.Uint64(out[i*16+8:])
	}
	return cs, nil
}
