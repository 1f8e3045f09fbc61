//go:build race

package wire

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put, so allocation counts through the buffer pool are not exact.
const raceEnabled = true
