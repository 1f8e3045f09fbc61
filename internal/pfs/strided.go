package pfs

import (
	"io"
	"net"

	"dosas/internal/wire"
)

// strided is one storage server's share of a caller buffer laid out in
// file order. Under round-robin striping the bytes a server holds of a
// contiguous file range are contiguous in its local stream but strided
// in the caller's buffer: first bytes at buf[0], then piece-byte pieces
// separated by skip bytes that belong to the other servers. The striping
// client scatters read responses into such a view, and sends write
// requests out of one by reference, without an intermediate contiguous
// copy.
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

// Len, AppendRange, WriteRange and Close make a view the by-reference
// body of a wire.WriteReq: the frame writers put the caller's own pieces
// beside the frame header in one vectored write (AppendRange); the encoder
// staging a small body inline has them written in turn (WriteRange).
func (v strided) Len() int64   { return int64(v.n) }
func (v strided) Close() error { return nil }

func (v strided) AppendRange(vecs net.Buffers, off, n int64) net.Buffers {
	v.slice(int(off), int(n)).pieces(func(p []byte) { vecs = append(vecs, p) })
	return vecs
}

func (v strided) WriteRange(w io.Writer, off, n int64, _ *wire.FrameStats) (err error) {
	v.slice(int(off), int(n)).pieces(func(p []byte) {
		if err == nil {
			_, err = w.Write(p)
		}
	})
	return err
}
