package kernels

import (
	"fmt"
	"os"
	"runtime/debug"
	"syscall"
	"testing"
)

// Each of sum8's loops reads no byte past the ones it adds: with those bytes
// ending at a page that cannot be read, the rest of the slice lies on it,
// and any load past them faults.
func TestSum8PathsStopAtCovered(t *testing.T) {
	page := os.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(mem)
	for i := range mem[:page] {
		mem[i] = byte(i*31 + 7)
	}
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	sum := func(path sum8Path, p []byte) (s uint64, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%v", r)
			}
		}()
		return path.sum(p), nil
	}
	for _, path := range sum8Paths {
		for n := 0; n <= 1024+64; n++ {
			cov := path.covered(n)
			start := page - cov
			got, err := sum(path, mem[start:start+n])
			if err != nil {
				t.Fatalf("%s over %d bytes, %d of them readable: %v", path.name, n, cov, err)
			}
			ref := &refSum8{}
			ref.Process(mem[start:page])
			if got != ref.total {
				t.Fatalf("%s over %d bytes: %d, want %d", path.name, n, got, ref.total)
			}
		}
	}
}
