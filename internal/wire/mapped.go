package wire

import (
	"errors"
	"io"
	"net"
	"os"
	"runtime/debug"
	"sync"
	"syscall"
	"unsafe"
)

// MappedPayload is a bulk body lent from memory-mapped files: the page
// cache in place, as the extent store's read-only mappings show it. On a
// *net.TCPConn the mux writer puts a segment's header, its views and the
// frame tail in one writev, so the body leaves without a user-space copy
// and without a second send; on any other writer (in-process pipes, shaped
// or delayed links) the views are staged through a pooled buffer.
//
// Fault rule: a page of a view past its file's end — the file was cut
// under the send — never kills the process or the connection. writev stops
// at it with EFAULT after a short count, and a staged copy faults, which
// is recovered under debug.SetPanicOnFault; either way the rest of the
// segment's body goes out as zeros, because the frame length is already on
// the wire (as sendfile's early EOF does for a FilePayload).
type MappedPayload struct {
	views   [][]byte
	n       int64
	release func()
	once    sync.Once
}

// NewMappedPayload returns a payload over views, concatenated. release
// (optional) runs once on Close: the hook through which the store unpins
// the mappings' files.
func NewMappedPayload(views [][]byte, release func()) *MappedPayload {
	var n int64
	for _, v := range views {
		n += int64(len(v))
	}
	return &MappedPayload{views: views, n: n, release: release}
}

// Len implements Payload.
func (p *MappedPayload) Len() int64 { return p.n }

// Close implements Payload.
func (p *MappedPayload) Close() error {
	p.once.Do(func() {
		if p.release != nil {
			p.release()
		}
	})
	return nil
}

// appendViews appends the pieces of the views holding payload bytes
// [off, off+n). It is not memPayload's AppendRange on purpose: a writer
// must not hand the views to code that copies them unprotected.
func (p *MappedPayload) appendViews(vecs net.Buffers, off, n int64) net.Buffers {
	for _, v := range p.views {
		if n == 0 {
			break
		}
		if off >= int64(len(v)) {
			off -= int64(len(v))
			continue
		}
		k := min(int64(len(v))-off, n)
		vecs = append(vecs, v[off:off+k])
		off, n = 0, n-k
	}
	return vecs
}

// WriteRange implements Payload for a writer without a kernel path: the
// bytes are staged through one pooled buffer (see stage) and counted as
// copied.
func (p *MappedPayload) WriteRange(w io.Writer, off, n int64, st *FrameStats) error {
	if off < 0 || n < 0 || off+n > p.n {
		return errPayloadRange
	}
	buf := GetBuf(int(min(n, payloadCopyChunk)))
	defer PutBuf(buf)
	for n > 0 {
		k := min(n, int64(len(buf)))
		p.stage(buf[:k], off)
		if _, err := w.Write(buf[:k]); err != nil {
			return err
		}
		st.addCopied(k)
		off, n = off+k, n-k
	}
	return nil
}

// stage copies payload bytes [off, off+len(dst)) into dst one source page
// at a time under debug.SetPanicOnFault. From the page that faults on, dst
// is zero-filled: every byte before it was copied whole.
func (p *MappedPayload) stage(dst []byte, off int64) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	done := 0
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(interface{ Addr() uintptr }); !ok {
				panic(r)
			}
			clear(dst[done:])
		}
	}()
	page := uintptr(os.Getpagesize())
	for _, src := range p.appendViews(nil, off, int64(len(dst))) {
		for len(src) > 0 {
			k := min(len(src), int(page-uintptr(unsafe.Pointer(&src[0]))%page))
			done += copy(dst[done:], src[:k])
			src = src[k:]
		}
	}
}

// writevMapped writes one mux segment whose body range [bs, be) is lent by
// p: bufs (the segment header and any head bytes), the views and tail in
// one writev. It applies the fault rule: after an EFAULT the rest of the
// segment goes out as it stands, with zeros for the views' bytes. The
// caller holds the write token.
func (mw *MuxWriter) writevMapped(bufs net.Buffers, p *MappedPayload, bs, be int64, tail []byte) error {
	var lead int64
	for _, b := range bufs {
		lead += int64(len(b))
	}
	vs := len(bufs) // the views are bufs[vs:ve]
	bufs = p.appendViews(bufs, bs, be-bs)
	ve := len(bufs)
	if len(tail) > 0 {
		bufs = append(bufs, tail)
	}
	n, err := mw.writev(bufs)
	mw.Stats.addMapped(min(max(n-lead, 0), be-bs))
	if !errors.Is(err, syscall.EFAULT) {
		return err
	}
	// The kernel takes none of the chunk it faults in, which may reach
	// back into the header: mw.out is what it did not take, from the
	// first byte of that chunk on.
	first := len(bufs) - len(mw.out)
	for j, b := range mw.out {
		if i := first + j; i >= vs && i < ve {
			err = writeZeros(mw.w, int64(len(b)), mw.Stats)
		} else {
			_, err = mw.w.Write(b)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
