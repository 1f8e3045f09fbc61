// Package ring is the fixed-capacity overwrite ring behind a node's
// bounded histories: trace events, decision records, the event log,
// telemetry series, the slow-request detector's latencies and the flight
// recorder's bundles. Like ioqueue it neither locks nor blocks: its owner
// guards it.
package ring

// Ring holds the last values added to it, up to its capacity.
type Ring[T any] struct {
	buf   []T
	start int // index of the oldest value
	n     int // values held
}

// New returns an empty ring of the given capacity; below 1 it holds 1.
func New[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, max(capacity, 1))}
}

// Add appends v. When the ring is full it overwrites the oldest value and
// reports that it did.
func (r *Ring[T]) Add(v T) (overwrote bool) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = v
		r.n++
		return false
	}
	r.buf[r.start] = v
	r.start = (r.start + 1) % len(r.buf)
	return true
}

// Len reports how many values the ring holds.
func (r *Ring[T]) Len() int { return r.n }

// At returns the i-th oldest value, for 0 <= i < Len().
func (r *Ring[T]) At(i int) *T {
	if i < 0 || i >= r.n {
		panic("ring: index out of range")
	}
	return &r.buf[(r.start+i)%len(r.buf)]
}

// Append appends the values to dst, oldest first.
func (r *Ring[T]) Append(dst []T) []T {
	if end := r.start + r.n; end <= len(r.buf) {
		return append(dst, r.buf[r.start:end]...)
	}
	dst = append(dst, r.buf[r.start:]...)
	return append(dst, r.buf[:r.start+r.n-len(r.buf)]...)
}
