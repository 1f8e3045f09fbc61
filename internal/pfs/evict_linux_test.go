package pfs

import (
	"os"
	"syscall"
	"testing"
)

// evict drops the pages of the file at path from the page cache, without
// root: with writeBack, fsync first, then POSIX_FADV_DONTNEED, which drops
// only clean pages that no process maps. It reports whether the kernel let
// every page go.
func evict(t *testing.T, path string, writeBack bool) bool {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if writeBack {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	const fadvDontNeed = 4
	if _, _, e := syscall.Syscall6(syscall.SYS_FADVISE64, f.Fd(), 0, 0, fadvDontNeed, 0, 0); e != 0 {
		t.Fatal(e)
	}
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapFile(f, fi.Size(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer unmapFile(m)
	for i := 0; i < len(m); i += os.Getpagesize() {
		if resident(m[i : i+1]) {
			return false
		}
	}
	return true
}
