//go:build !linux

package pfs

import "testing"

// evict needs POSIX_FADV_DONTNEED and mincore, which only the Linux build
// has: a test that needs cold pages is skipped.
func evict(t *testing.T, _ string, _ bool) bool {
	t.Helper()
	t.Skip("dropping a file's pages from the page cache needs Linux")
	return false
}
