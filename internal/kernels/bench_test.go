package kernels

import (
	"testing"
)

// BenchmarkKernel streams one 1 MiB chunk — the runtime's default
// ChunkSize — through a long-lived instance of every registered kernel,
// with Calibrate's parameters: the steady-state cost of Runtime.execute's
// inner call.
func BenchmarkKernel(b *testing.B) {
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	for _, op := range Names() {
		b.Run(op, func(b *testing.B) {
			k, err := Start(op, defaultParamsFor(op), nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := k.Process(data); err != nil { // reach the steady state
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := k.Process(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelOutOfCache streams sum8 over a 256 MiB buffer, far larger
// than any last-level cache, 1 MiB at a time and each chunk the next one
// (wrapping at the end): the rate a scan of the page cache sees, where
// BenchmarkKernel's one chunk stays in cache. words is the portable loop on
// its own, the whole of sum8 on a GOARCH without a block loop.
func BenchmarkKernelOutOfCache(b *testing.B) {
	const chunk, span = 1 << 20, 256 << 20
	data := make([]byte, span)
	for i := range data { // touch every page: untouched ones all read the zero page
		data[i] = byte(i*31 + 7)
	}
	k := &sum8{}
	for _, c := range []struct {
		name string
		sum  func([]byte) uint64
	}{
		{"sum8", func(p []byte) uint64 { k.Process(p); return k.total }},
		{"words", sum8Words},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(chunk)
			b.ReportAllocs()
			var sink uint64
			for i := 0; i < b.N; i++ {
				off := i * chunk % span
				sink += c.sum(data[off : off+chunk])
			}
			if sink == 0 {
				b.Fatal("summed nothing")
			}
		})
	}
}
