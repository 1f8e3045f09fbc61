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
