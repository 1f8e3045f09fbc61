//go:build linux

package pfs

import (
	"os"
	"syscall"
)

// mapFile maps the first n bytes of f read-only and shared: the pages are
// the page cache's own, so bytes written through any descriptor of the file
// show through without a remap. Pages wholly past the file's end fault
// (SIGBUS) when touched; callers bound what they read by the length fstat
// reported. The mapping outlives neither the cache entry that owns it nor
// the descriptor it was made from (see fdCache.closeEntry).
func mapFile(f *os.File, n int64) (m []byte, err error) {
	sc, err := f.SyscallConn()
	if err != nil {
		return nil, err
	}
	if cerr := sc.Control(func(fd uintptr) {
		m, err = syscall.Mmap(int(fd), 0, int(n), syscall.PROT_READ, syscall.MAP_SHARED)
	}); cerr != nil {
		return nil, cerr
	}
	return m, err
}

// unmapFile releases a mapping made by mapFile.
func unmapFile(m []byte) error { return syscall.Munmap(m) }
