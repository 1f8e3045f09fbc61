package kernels

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// Each of sum8's loops loads no byte past the ones it adds: with those bytes
// ending at a page that cannot be read, the rest of the slice lies on it,
// and any load past them faults. The page after them is PROT_NONE, not
// mapped at all, or a file mapping's page past the end of the file, whose
// loads raise SIGBUS. The amd64 block loop's prefetches reach into that
// page; a prefetch is a hint and must not fault on any of the three.
func TestSum8PathsStopAtCovered(t *testing.T) {
	page := os.Getpagesize()
	fill := func(p []byte) {
		for i := range p {
			p[i] = byte(i*31 + 7)
		}
	}
	anon := func(t *testing.T) []byte {
		mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { syscall.Munmap(mem) })
		fill(mem[:page])
		return mem
	}
	for _, nb := range []struct {
		name string
		mem  func(t *testing.T) []byte // mem[:page] readable and filled, mem[page:] not readable
	}{
		{"prot-none", func(t *testing.T) []byte {
			mem := anon(t)
			if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
				t.Fatal(err)
			}
			return mem
		}},
		{"unmapped", func(t *testing.T) []byte {
			mem := anon(t)
			// Not syscall.Munmap: it unmaps the whole mapping a slice lies in.
			if _, _, errno := syscall.Syscall(syscall.SYS_MUNMAP, uintptr(unsafe.Pointer(&mem[page])), uintptr(page), 0); errno != 0 {
				t.Fatal(errno)
			}
			t.Cleanup(func() {
				if mapped(mem[page:]) {
					t.Error("the unmapped page was mapped again while the test ran")
				}
			})
			return mem
		}},
		{"past-eof", func(t *testing.T) []byte {
			f, err := os.Create(filepath.Join(t.TempDir(), "extent"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			buf := make([]byte, 2*page)
			fill(buf[:page])
			if _, err := f.Write(buf); err != nil {
				t.Fatal(err)
			}
			mem, err := syscall.Mmap(int(f.Fd()), 0, 2*page, syscall.PROT_READ, syscall.MAP_SHARED)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { syscall.Munmap(mem) })
			if err := f.Truncate(int64(page)); err != nil {
				t.Fatal(err)
			}
			return mem
		}},
	} {
		t.Run(nb.name, func(t *testing.T) {
			mem := nb.mem(t)
			defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
			sum := func(f func([]byte) uint64, p []byte) (s uint64, err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("%v", r)
					}
				}()
				return f(p), nil
			}
			if _, err := sum(sum8Words, mem[page:page+1]); err == nil {
				t.Fatal("the page after the covered bytes is readable")
			}
			for _, path := range sum8Paths {
				for n := 0; n <= 1024+64; n++ {
					cov := path.covered(n)
					start := page - cov
					got, err := sum(path.sum, mem[start:start+n])
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
		})
	}
}

// mapped reports whether any page of p is mapped: mincore fails with ENOMEM
// on a range with no mapping in it.
func mapped(p []byte) bool {
	vec := make([]byte, (len(p)+os.Getpagesize()-1)/os.Getpagesize())
	_, _, errno := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(&p[0])), uintptr(len(p)), uintptr(unsafe.Pointer(&vec[0])))
	return errno != syscall.ENOMEM
}
