package kernels

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// BenchmarkKernelOutOfCache streams sum8 over 256 MiB, far larger than any
// last-level cache, 1 MiB at a time and each chunk the next one (wrapping at
// the end), where BenchmarkKernel's one chunk stays in cache. mapped is the
// input a scan of the page cache reads: a resident file through a read-only
// shared mapping, its 4 KiB pages physically scattered, so the hardware
// prefetchers stop at every page boundary. heap is a Go buffer; where
// transparent huge pages are always on, the kernel may back it with 2 MiB
// pages, and then it crosses few such boundaries. words is the portable loop
// on its own, the whole of sum8 on a GOARCH without a block loop.
func BenchmarkKernelOutOfCache(b *testing.B) {
	const chunk, span = 1 << 20, 256 << 20
	k := &sum8{}
	for _, in := range []struct {
		name string
		data func(b *testing.B, n int) []byte
	}{
		{"heap", heapSpan},
		{"mapped", mappedSpan},
	} {
		b.Run(in.name, func(b *testing.B) {
			data := in.data(b, span)
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
		})
	}
}

// heapSpan returns n bytes of the Go heap, every page touched: untouched
// ones all read the zero page.
func heapSpan(b *testing.B, n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	return data
}

// mappedSpan returns a read-only shared mapping of an n-byte temporary file
// whose pages are resident in the page cache and in the mapping's page
// tables before the benchmark's timer starts.
func mappedSpan(b *testing.B, n int) []byte {
	f, err := os.Create(filepath.Join(b.TempDir(), "span"))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 1<<20)
	for off := 0; off < n; off += len(buf) {
		for i := range buf {
			buf[i] = byte((off+i)*31 + 7)
		}
		if _, err := f.Write(buf); err != nil {
			b.Fatal(err)
		}
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, n, syscall.PROT_READ, syscall.MAP_SHARED|syscall.MAP_POPULATE)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { syscall.Munmap(data) })
	return data
}
