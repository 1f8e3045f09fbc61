package pfs

// strided is one storage server's share of a caller buffer laid out in
// file order. Under round-robin striping the bytes a server holds of a
// contiguous file range are contiguous in its local stream but strided
// in the caller's buffer: first bytes at buf[0], then piece-byte pieces
// separated by skip bytes that belong to the other servers. The striping
// client scatters read responses into, and gathers write requests out
// of, such a view without an intermediate contiguous copy.
type strided struct {
	buf   []byte // starts at the view's first byte
	first int    // bytes in the first piece
	piece int    // bytes in every later piece (the stripe size)
	skip  int    // bytes between pieces ((width-1) stripes)
	n     int    // total bytes in the view
}

// contig views all of b as one piece.
func contig(b []byte) strided { return strided{buf: b, first: len(b), n: len(b)} }

// slice returns the sub-view covering view bytes [at, at+n).
func (v strided) slice(at, n int) strided {
	if n == 0 {
		return strided{}
	}
	if at < v.first {
		v.buf, v.first = v.buf[at:], v.first-at
	} else {
		q := at - v.first
		in := q % v.piece
		v.buf = v.buf[v.first+v.skip+q/v.piece*(v.piece+v.skip)+in:]
		v.first = v.piece - in
	}
	v.first, v.n = min(v.first, n), n
	return v
}

// pieces calls fn with the view's pieces in order.
func (v strided) pieces(fn func(p []byte)) {
	at, k := 0, v.first
	for n := v.n; n > 0; {
		k = min(k, n)
		fn(v.buf[at : at+k])
		n -= k
		at, k = at+k+v.skip, v.piece
	}
}

// copyFrom scatters src, which must hold at least n bytes, into the view.
func (v strided) copyFrom(src []byte) {
	v.pieces(func(p []byte) { src = src[copy(p, src):] })
}

// clear zeroes the view's bytes.
func (v strided) clear() {
	v.pieces(func(p []byte) { clear(p) })
}

// Len and AppendTo make a view a wire.BodySource: the WriteReq encoder
// gathers the view's bytes straight into the frame.
func (v strided) Len() int { return v.n }

func (v strided) AppendTo(dst []byte) []byte {
	v.pieces(func(p []byte) { dst = append(dst, p...) })
	return dst
}
