package wire

// By-reference bulk payloads: the zero-copy read path. A data server
// answering a bulk read normally stages the bytes twice in user space —
// store → pooled read buffer, read buffer → frame encode buffer — before
// the socket write copies them a third time into kernel space. A Payload
// instead describes where the bytes live (extent files on disk, for the
// extent store) and lets each framing layer move them directly: the frame
// header and trailer are encoded into a small pooled buffer, coalesced
// with memory-backed and file-mapped bodies (MappedPayload) via vectored
// writes (net.Buffers/writev), and other file-backed bodies are pushed
// with sendfile(2), so they travel page cache → socket without ever
// entering user space.
//
// Ownership: the creator of a Payload (the data server's read handler)
// closes it, via PostWrite, after the response frame has left the
// connection — exactly the PoolBuf lifecycle. The framing layers never
// close payloads; they only read ranges.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
)

// Payload is the by-reference body of a bulk frame. Implementations must
// tolerate concurrent WriteRange calls on disjoint ranges (mux segments
// of one frame are written serially, but a payload may in principle be
// shared) and must serve a stable snapshot length: WriteRange writes
// exactly n bytes even if the backing object shrinks mid-transfer
// (zero-filling the tail), because the frame length is already on the
// wire.
type Payload interface {
	// Len returns the payload's byte length, fixed at creation.
	Len() int64
	// WriteRange writes payload bytes [off, off+n) to w, counting moved
	// bytes into st (which may be nil). It must write exactly n bytes or
	// return an error; a partial write leaves the frame unrecoverable,
	// so callers treat any error as connection-fatal.
	WriteRange(w io.Writer, off, n int64, st *FrameStats) error
	// Close releases backing resources (fd-cache references). Called
	// exactly once, by the payload's creator, after the frame is written
	// or has definitively failed.
	Close() error
}

// FrameStats counts how a connection's frames moved their bytes. One
// struct is typically shared by every connection of a server and mirrored
// into its metrics registry (wire.mapped_bytes, wire.sendfile_bytes,
// wire.writev_calls, wire.copied_bytes).
type FrameStats struct {
	// MappedBytes counts payload bytes written to a socket by writev
	// straight out of a file mapping (MappedPayload): zero user-space
	// copies.
	MappedBytes atomic.Int64
	// SendfileBytes counts payload bytes moved page cache → socket by
	// sendfile(2): zero user-space copies.
	SendfileBytes atomic.Int64
	// WritevCalls counts vectored writes that coalesced a frame header
	// with a by-reference body (one copy saved each).
	WritevCalls atomic.Int64
	// CopiedBytes counts payload bytes staged through user-space buffers
	// by the framing layer: inline frame encodes of bulk bodies and the
	// pooled-copy fallback for payloads on non-TCP connections.
	CopiedBytes atomic.Int64
	// CancelledBytes counts body bytes zero-filled because the response
	// was cancelled mid-frame (hedged-read loser withdrawal): bandwidth
	// the frame still owed the wire but the backing store never served.
	CancelledBytes atomic.Int64

	// The receive side (MuxReader.Stats). LandedBytes counts ReadResp and
	// WriteReq body bytes read from the connection straight into a
	// landing's memory. RecvCopiedBytes counts those bodies' bytes
	// reassembled in a frame buffer instead, which the receiver must copy
	// once more to place them (into the caller's view, or with pwrite).
	LandedBytes     atomic.Int64
	RecvCopiedBytes atomic.Int64
}

// The add helpers are nil-safe so framing code needs no stats plumbing
// conditionals on its hot path.

func (s *FrameStats) addMapped(n int64) {
	if s != nil && n > 0 {
		s.MappedBytes.Add(n)
	}
}

func (s *FrameStats) addSendfile(n int64) {
	if s != nil && n > 0 {
		s.SendfileBytes.Add(n)
	}
}

func (s *FrameStats) addWritev(n int64) {
	if s != nil {
		s.WritevCalls.Add(n)
	}
}

func (s *FrameStats) addCopied(n int64) {
	if s != nil && n > 0 {
		s.CopiedBytes.Add(n)
	}
}

func (s *FrameStats) addCancelled(n int64) {
	if s != nil && n > 0 {
		s.CancelledBytes.Add(n)
	}
}

func (s *FrameStats) addLanded(n int64) {
	if s != nil && n > 0 {
		s.LandedBytes.Add(n)
	}
}

func (s *FrameStats) addRecvCopied(n int64) {
	if s != nil && n > 0 {
		s.RecvCopiedBytes.Add(n)
	}
}

// cancelCarrier is implemented by messages that expose a cancellation
// flag the frame writers poll between bulk segments (ReadResp). A nil
// flag means not cancellable.
type cancelCarrier interface {
	cancelFlag() *atomic.Bool
}

// cancelFlagOf extracts the cancel flag from a message, nil when the
// message is not cancellable.
func cancelFlagOf(m Message) *atomic.Bool {
	if cc, ok := m.(cancelCarrier); ok {
		return cc.cancelFlag()
	}
	return nil
}

// cancelled is a nil-safe flag check.
func cancelled(f *atomic.Bool) bool { return f != nil && f.Load() }

// payloadCarrier is implemented by bulk messages, whose field list has a
// Body the framing layers may write by reference instead of materializing
// in the encode buffer. The same list encodes the head (everything before
// the body bytes, including the body's length prefix) and the tail
// (everything after), so the frame is byte-identical to the inline one and
// receivers — old peers included — need no changes.
type payloadCarrier interface {
	Message
	// bulkRef returns the body by reference: the raw bytes for a
	// memory-backed message, or a Payload for a store-backed one (at
	// most one is non-nil).
	bulkRef() (data []byte, p Payload)
}

// vectoredMin is the smallest memory-backed body worth a vectored write;
// below it the inline encode copy is cheaper than assembling iovecs.
const vectoredMin = 16 << 10

// memPayload is a Payload whose bytes are already in memory: the
// client's write buffer seen through a striping view, or a response's
// Data. The frame writers put the pieces holding a range beside the frame
// header in one vectored write, so the body leaves the sender without a
// user-space copy — and aliases its creator's memory until the frame has
// been written or has failed.
type memPayload interface {
	Payload
	// AppendRange appends the pieces holding payload bytes [off, off+n).
	AppendRange(vecs net.Buffers, off, n int64) net.Buffers
}

// worthRef reports whether the frame writers move p by reference: always
// from a store, from memory only at vectoredMin and above.
func worthRef(p Payload) bool {
	if _, mem := p.(memPayload); mem {
		return p.Len() >= vectoredMin
	}
	return p != nil
}

// memBytes is a message's contiguous Data as a memPayload.
type memBytes []byte

func (b memBytes) Len() int64   { return int64(len(b)) }
func (b memBytes) Close() error { return nil }

func (b memBytes) AppendRange(vecs net.Buffers, off, n int64) net.Buffers {
	return append(vecs, b[off:off+n])
}

func (b memBytes) WriteRange(w io.Writer, off, n int64, _ *FrameStats) error {
	_, err := w.Write(b[off : off+n])
	return err
}

// errPayloadRange is returned by WriteRange for out-of-bounds requests.
var errPayloadRange = errors.New("wire: payload range out of bounds")

// FileSection is one contiguous piece of a FilePayload: N bytes read from
// F starting at Off, or — when F is nil — N bytes of zeros (a hole in the
// backing store).
type FileSection struct {
	F   *os.File
	Off int64
	N   int64
}

// FilePayload serves a bulk body from one or more file ranges (the extent
// store's on-disk extents). On a *net.TCPConn the file ranges move via
// sendfile(2) with explicit offsets, so concurrent payloads can share the
// fd-cache's descriptors without racing on file positions; on any other
// writer (in-process transports, shaped links, non-Linux builds) the
// ranges are staged through one pooled buffer. Sections shorter than
// announced — the backing file shrank after the payload was built — are
// zero-filled to the section length, honoring the frame length already
// announced on the wire.
type FilePayload struct {
	secs    []FileSection
	n       int64
	release func()
	once    sync.Once

	// noSendfile latches after the kernel or destination declines
	// sendfile, so every later section of this payload skips the probe.
	noSendfile bool
}

// NewFilePayload returns a payload over secs. release (optional) runs
// once on Close — the hook through which the extent store drops its
// fd-cache references.
func NewFilePayload(secs []FileSection, release func()) *FilePayload {
	var n int64
	for _, s := range secs {
		n += s.N
	}
	return &FilePayload{secs: secs, n: n, release: release}
}

// Len implements Payload.
func (p *FilePayload) Len() int64 { return p.n }

// Close implements Payload.
func (p *FilePayload) Close() error {
	p.once.Do(func() {
		if p.release != nil {
			p.release()
		}
	})
	return nil
}

// WriteRange implements Payload.
func (p *FilePayload) WriteRange(w io.Writer, off, n int64, st *FrameStats) error {
	if off < 0 || n < 0 || off+n > p.n {
		return errPayloadRange
	}
	for _, sec := range p.secs {
		if n == 0 {
			break
		}
		if off >= sec.N {
			off -= sec.N
			continue
		}
		k := min(sec.N-off, n)
		var err error
		if sec.F == nil {
			err = writeZeros(w, k, st)
		} else {
			err = p.writeFileRange(w, sec.F, sec.Off+off, k, st)
		}
		if err != nil {
			return err
		}
		off = 0
		n -= k
	}
	return nil
}

// payloadCopyChunk sizes the pooled staging buffer of the copy fallback.
const payloadCopyChunk = 256 << 10

func (p *FilePayload) writeFileRange(w io.Writer, f *os.File, off, n int64, st *FrameStats) error {
	if !p.noSendfile {
		if tcp, ok := w.(*net.TCPConn); ok {
			written, handled, err := rawSendfile(tcp, f, off, n, st)
			if handled {
				if err != nil {
					return err
				}
				if written < n {
					// Source shorter than announced (it shrank after the
					// payload was built): zero-fill the tail.
					return writeZeros(w, n-written, st)
				}
				return nil
			}
			p.noSendfile = true
		}
	}
	buf := GetBuf(int(min(n, payloadCopyChunk)))
	defer PutBuf(buf)
	for n > 0 {
		k := int(min(n, int64(len(buf))))
		m, rerr := f.ReadAt(buf[:k], off)
		if m < k {
			// EOF short read: the frame promised k more bytes, fill with
			// zeros. Any other read error is connection-fatal (the frame
			// header is already on the wire).
			if rerr != nil && !errors.Is(rerr, io.EOF) {
				return fmt.Errorf("wire: payload read: %w", rerr)
			}
			clear(buf[m:k])
		}
		if _, werr := w.Write(buf[:k]); werr != nil {
			return werr
		}
		st.addCopied(int64(k))
		off += int64(k)
		n -= int64(k)
	}
	return nil
}

// zeroChunk backs hole writes; read-only.
var zeroChunk [32 << 10]byte

func writeZeros(w io.Writer, n int64, st *FrameStats) error {
	for n > 0 {
		k := min(n, int64(len(zeroChunk)))
		if _, err := w.Write(zeroChunk[:k]); err != nil {
			return err
		}
		st.addCopied(k)
		n -= k
	}
	return nil
}

// sliceWriter appends into a fixed-capacity slice region.
type sliceWriter struct {
	buf []byte
}

func (w *sliceWriter) Write(p []byte) (int, error) {
	if len(w.buf)+len(p) > cap(w.buf) {
		return 0, io.ErrShortBuffer
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}
