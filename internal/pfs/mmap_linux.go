//go:build linux

package pfs

import (
	"os"
	"syscall"
	"unsafe"
)

// mapFile maps the first n bytes of f shared, read-only or — for write
// landings — read-write: the pages are the page cache's own, so bytes
// written through any descriptor or mapping of the file show through every
// other without a remap. Pages wholly past the file's end fault (SIGBUS)
// when touched; callers bound what they touch by the length fstat
// reported. The mapping outlives neither the cache entry that owns it nor
// the descriptor it was made from (see fdCache.closeEntry).
func mapFile(f *os.File, n int64, write bool) (m []byte, err error) {
	prot := syscall.PROT_READ
	if write {
		prot |= syscall.PROT_WRITE
	}
	sc, err := f.SyscallConn()
	if err != nil {
		return nil, err
	}
	if cerr := sc.Control(func(fd uintptr) {
		m, err = syscall.Mmap(int(fd), 0, int(n), prot, syscall.MAP_SHARED)
	}); cerr != nil {
		return nil, cerr
	}
	return m, err
}

// unmapFile releases a mapping made by mapFile.
func unmapFile(m []byte) error { return syscall.Munmap(m) }

// resident reports whether every page under b, a range of a mapping that
// starts on a page boundary, is in the page cache (mincore). A write into a
// page that is not would read it from the disk first.
func resident(b []byte) bool {
	var vec [512]byte // one byte a page: 2 MiB of 4 KiB pages per call
	page := os.Getpagesize()
	for len(b) > 0 {
		n := min(len(b), len(vec)*page)
		pages := (n + page - 1) / page
		if _, _, e := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(&b[0])), uintptr(n),
			uintptr(unsafe.Pointer(&vec[0]))); e != 0 {
			return false
		}
		for _, v := range vec[:pages] {
			if v&1 == 0 {
				return false
			}
		}
		b = b[n:]
	}
	return true
}
