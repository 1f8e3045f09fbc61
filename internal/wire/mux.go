package wire

// Multiplexed framing: what a connection speaks after its HelloReq/
// HelloResp exchange (messages.go). Single frames (wire.go) allow one
// strictly ordered exchange at a time, so a 4 MB ReadResp stalls every
// control message queued behind it. Mux framing tags every frame with a
// stream ID and a priority class, segments bulk payloads into small
// sub-frames, and lets a writer interleave control frames between the
// segments of an in-flight bulk message — the BMI/HTTP/2 shape.
//
// Mux frame layout (little-endian, after both sides commit to mux):
//
//	len     u32  // counts everything after itself: type..payload
//	type    u16  // MsgType of the (whole, reassembled) message
//	stream  u32  // correlates segments and matches responses to requests
//	class   u8   // ClassControl or ClassBulk; receiver-advisory
//	flags   u8   // FlagMore, FlagTotal
//	total   u32  // only with FlagTotal: the whole message's payload length
//	payload []byte
//
// A message is the concatenation of its segments' payloads in arrival
// order; segments of distinct streams interleave freely, segments of one
// stream never reorder (single writer per direction). The reassembled
// payload decodes exactly like a classic frame body. The first segment
// of a multi-segment message — and only that one — carries FlagTotal and
// the total, so the receiver takes one buffer of the final size up front
// instead of growing (and re-copying) as segments arrive: with per-server
// runs every bulk message is MiB-sized and multi-segment, and growing by
// size class cost ~1.6 extra copies per received byte.
//
// A bulk body need not be assembled at all. When the reader's Dest hook
// names a Landing for a ReadResp's stream, or its WriteDest hook one for a
// WriteReq's address, the body moves from the connection into that memory
// segment by segment, and only the few bytes around it are kept. The wire
// bytes are the same.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// MuxVersion is the mux protocol version this build speaks. Version 2
// added the announced total; version 3 retired the nine introspection
// pairs for IntrospectReq, so the handshake refuses a peer that may still
// send one, rather than failing its first such frame as an unknown type
// on a connection every caller shares.
const MuxVersion = 3

// Segment sizing. DefaultMuxSegment bounds how long a control frame can
// be stuck behind an already-started bulk write: 256 KiB is ~30 µs on a
// 10 GbE link and ~4 ms on the 64 MB/s shaped links the benches use.
const (
	DefaultMuxSegment = 256 << 10
	MinMuxSegment     = 4 << 10

	// muxReadBuf sizes MuxReader's read buffer for one small frame — a
	// 4 KiB body, its envelope and header — which so arrives in one read.
	// Longer reads bypass the buffer: of a bulk segment only what was read
	// along with its header, and a last read shorter than this, cross it.
	muxReadBuf = 4<<10 + 128
)

// Priority classes. Control frames always jump the writer's queue; bulk
// frames share the link in FIFO order, one segment at a time.
const (
	ClassControl uint8 = 0
	ClassBulk    uint8 = 1
)

// FlagMore marks a non-final segment. FlagTotal marks the first segment
// of a multi-segment message: a u32 total payload length follows the
// header.
const (
	FlagMore  uint8 = 1 << 0
	FlagTotal uint8 = 1 << 1
)

const (
	muxHdrSize   = 12 // len + type + stream + class + flags
	muxTotalSize = 4  // the announced total after a FlagTotal header
	muxHdrRoom   = muxHdrSize + muxTotalSize
	muxOverhead  = 8 // bytes counted by len besides total and payload

	// maxMuxAnnounced bounds the sum of the totals announced by a
	// connection's half-received streams; exceeding it is fatal to the
	// connection. It is what MuxWriter can have begun and not finished:
	// one bulk message plus one control message written whole between
	// two of its segments (see drainLocked) — a writer that interleaved
	// more large messages would need this raised with it. A buffer is
	// committed at its announced size on ~16 wire bytes, so this is also
	// the most memory a misbehaving peer can pin per connection without
	// sending it.
	maxMuxAnnounced = 2 * MaxFrameSize

	// maxMuxAssembling bounds concurrently half-received streams per
	// connection; beyond it the peer is abusing the protocol.
	maxMuxAssembling = 1024
)

// ErrMuxClosed is returned by Enqueue after Close.
var ErrMuxClosed = errors.New("wire: mux writer closed")

// muxFrame is one fully encoded message queued for writing. The payload
// lives at buf[muxHdrRoom:]; the header of each segment is written in
// place immediately before that segment's payload bytes (clobbering the
// tail of the previous, already-written segment), so each segment goes
// out as a single contiguous Write with zero copying.
//
// A by-reference frame (p != nil) instead keeps only the encoded head
// and tail in buf — buf[muxHdrRoom:muxHdrRoom+pre] precedes the body,
// the rest follows it — and moves the body from p segment by segment:
// each segment's header, any head/tail overlap and a body range in memory
// (memPayload) or in a file mapping on TCP (MappedPayload) go out as one
// vectored write, any other store-backed range after it via the payload's
// sendfile or staging-copy path. The frame's done
// callback, not finish, owns the payload (the data server's PostWrite
// closes it; a client stream may reuse the memory behind it).
type muxFrame struct {
	t      MsgType
	stream uint32
	class  uint8
	buf    []byte // pooled: [muxHdrRoom header room][payload or head+tail]
	off    int    // payload bytes already written
	done   func(error)

	// By-reference body.
	p    Payload
	pre  int   // head bytes in buf after the header room
	body int64 // p's length, snapshotted at enqueue

	// cancel, when non-nil, is polled between segments: once true the
	// remaining body bytes go out as zeros (a withdrawn hedged read stops
	// consuming store bandwidth while the stream stays well-formed).
	cancel *atomic.Bool
}

// payloadLen returns the frame's logical payload length: the bytes that
// travel inside its segments, after their headers.
func (f *muxFrame) payloadLen() int {
	if f.p != nil {
		return len(f.buf) - muxHdrRoom + int(f.body)
	}
	return len(f.buf) - muxHdrRoom
}

func (f *muxFrame) finish(err error) {
	PutBuf(f.buf)
	f.buf = nil
	if f.done != nil {
		f.done(err)
	}
}

// MuxWriter serializes mux frames onto one connection from many
// goroutines, writing every queued control frame before the next bulk
// segment. Bulk payloads are cut into ≤segment-byte sub-frames so a
// control frame waits at most one segment.
//
// Whoever holds the write token (writing == true) drains the lanes.
// When the link is idle, Enqueue takes the token and writes its own
// frame from the calling goroutine — a queue handoff to the writer
// goroutine costs a scheduler wakeup (tens to hundreds of µs on an
// otherwise idle machine), which would tax every frame of a
// latency-bound pipeline. The writer goroutine only takes over when
// frames actually queue behind each other, i.e. when the link is busy
// and the wakeup is amortized.
type MuxWriter struct {
	w       io.Writer
	segment int

	// DepthHook, if set, observes queue depth: +1 when a frame of class
	// is enqueued, -1 when it finishes (written or failed). OnError, if
	// set, fires once when the writer dies. Both must be set before the
	// first Enqueue and must not block.
	DepthHook func(class uint8, delta int)
	OnError   func(error)

	// Stats, if set before the first Enqueue, counts how bulk bodies
	// moved (mapped/sendfile/writev/copied). Plain disables the by-reference
	// payload path: payload-carrying messages are materialized into
	// their frame buffer like any other (A/B benchmarking).
	Stats *FrameStats
	Plain bool

	// scratch holds the segment header of by-reference frames (their
	// buf has no room for in-place clobbering); vecs is the reusable
	// iovec list and out the list being written (see writev). All are
	// touched only by the write-token holder.
	scratch   [muxHdrRoom]byte
	vecs, out net.Buffers

	mu       sync.Mutex
	cond     *sync.Cond
	control  []*muxFrame
	bulk     []*muxFrame
	cur      *muxFrame // bulk frame partially on the wire
	writing  bool      // write token: one goroutine drains at a time
	err      error
	closed   bool
	finished chan struct{}
}

// NewMuxWriter starts the writer goroutine. Close must be called
// eventually or the goroutine leaks.
func NewMuxWriter(w io.Writer, segment int) *MuxWriter {
	if segment < MinMuxSegment {
		segment = MinMuxSegment
	}
	mw := &MuxWriter{w: w, segment: segment, finished: make(chan struct{})}
	mw.vecs = make(net.Buffers, 0, 4)
	mw.cond = sync.NewCond(&mw.mu)
	go mw.loop()
	return mw
}

// Enqueue encodes m and queues it for stream with m's ClassOf priority.
// done (optional) is invoked exactly once — from the writer goroutine,
// or from the enqueueing goroutine when the idle fast path writes the
// frame inline: with nil after the final segment is on the wire, or
// with the failure when the frame cannot be written — including when
// Enqueue itself returns an error. The return value is therefore
// advisory; correctness hangs off done. Enqueue may block for the
// duration of writing this frame (as a plain WriteMessage would), but
// never behind another caller's queued bulk.
func (mw *MuxWriter) Enqueue(m Message, stream uint32, done func(error)) error {
	if pc, ok := m.(payloadCarrier); ok && !mw.Plain {
		data, p := pc.bulkRef()
		if p == nil && cancelFlagOf(pc) != nil {
			// A body that may be withdrawn mid-frame goes by reference at
			// any size: that writer zero-fills exactly the body's bytes.
			p = memBytes(data)
		} else if !worthRef(p) {
			p = nil
		}
		if p != nil {
			return mw.enqueueRef(m, p, stream, done)
		}
	}
	hint := 64
	if s, ok := m.(sizeHinter); ok {
		hint = s.encodedSizeHint() + muxHdrRoom
	}
	c := &Codec{buf: GetBuf(hint)[:muxHdrRoom]}
	m.Fields(c)
	err := c.err
	if err == nil && len(c.buf)-muxHdrRoom+muxOverhead > MaxFrameSize {
		err = ErrFrameTooLarge
	}
	if err != nil {
		PutBuf(c.buf)
		if done != nil {
			done(err)
		}
		return err
	}
	if pc, ok := m.(payloadCarrier); ok {
		// The bulk body was staged through the frame buffer (MemStore
		// reads, and everything in Plain mode).
		mw.Stats.addCopied(bodyLen(pc))
	}
	f := &muxFrame{t: m.Type(), stream: stream, class: ClassOf(m.Type()), buf: c.buf, done: done}
	return mw.submit(f)
}

// enqueueRef queues a by-reference bulk frame: only the head and tail
// are encoded; the body streams from p at write time.
func (mw *MuxWriter) enqueueRef(m Message, p Payload, stream uint32, done func(error)) error {
	body := p.Len()
	c, err := encodeSplit(m, muxHdrRoom)
	if err == nil && int64(len(c.buf)-muxHdrRoom+muxOverhead)+body > MaxFrameSize {
		PutBuf(c.buf)
		err = ErrFrameTooLarge
	}
	if err != nil {
		if done != nil {
			done(err)
		}
		return err
	}
	f := &muxFrame{t: m.Type(), stream: stream, class: ClassOf(m.Type()),
		buf: c.buf, done: done, p: p, pre: int(c.at) - muxHdrRoom, body: body,
		cancel: cancelFlagOf(m)}
	return mw.submit(f)
}

// submit queues f and runs the idle fast path or signals the writer
// goroutine, exactly as Enqueue documents.
func (mw *MuxWriter) submit(f *muxFrame) error {
	mw.mu.Lock()
	if mw.err != nil || mw.closed {
		werr := mw.err
		mw.mu.Unlock()
		if werr == nil {
			werr = ErrMuxClosed
		}
		f.finish(werr)
		return werr
	}
	idle := !mw.writing && !mw.hasWorkLocked()
	if f.class == ClassControl {
		mw.control = append(mw.control, f)
	} else {
		mw.bulk = append(mw.bulk, f)
	}
	if mw.DepthHook != nil {
		mw.DepthHook(f.class, +1)
	}
	if !idle {
		// Busy: the current token holder re-checks the lanes before
		// releasing, so the frame is guaranteed a writer. The signal
		// covers the parked writer goroutine.
		mw.cond.Signal()
		mw.mu.Unlock()
		return nil
	}
	// Idle fast path: write f from this goroutine, skipping the wakeup.
	mw.writing = true
	err := mw.drainLocked(f)
	mw.writing = false
	mw.cond.Broadcast()
	mw.mu.Unlock()
	return err
}

// hasWorkLocked reports whether any frame is queued or partially
// written. Caller holds mw.mu.
func (mw *MuxWriter) hasWorkLocked() bool {
	return len(mw.control) > 0 || len(mw.bulk) > 0 || mw.cur != nil
}

// Close flushes already-queued frames, stops the writer goroutine and
// waits for it to exit. Subsequent Enqueues fail with ErrMuxClosed.
func (mw *MuxWriter) Close() error {
	mw.mu.Lock()
	mw.closed = true
	mw.cond.Broadcast()
	mw.mu.Unlock()
	<-mw.finished
	mw.mu.Lock()
	err := mw.err
	mw.mu.Unlock()
	return err
}

func (mw *MuxWriter) loop() {
	defer close(mw.finished)
	mw.mu.Lock()
	defer mw.mu.Unlock()
	for {
		for mw.err == nil && (mw.writing || !mw.hasWorkLocked()) {
			if mw.closed && !mw.writing && !mw.hasWorkLocked() {
				return
			}
			mw.cond.Wait()
		}
		if mw.err != nil {
			return
		}
		mw.writing = true
		mw.drainLocked(nil) //nolint:errcheck // recorded in mw.err
		mw.writing = false
		mw.cond.Broadcast()
	}
}

// drainLocked writes queued frames until no work is eligible or the
// writer dies, draining every queued control frame before each bulk
// segment. With inlineFor == nil (the writer goroutine) it drains
// everything. With inlineFor set (the Enqueue fast path) it writes all
// control frames plus at most that one bulk frame, so an enqueuer is
// never drafted into pushing another caller's bulk backlog; leftover
// bulk is handed to the writer goroutine by the caller's Broadcast.
//
// Receivers rely on the order this produces: the next bulk frame starts
// only once cur is fully written, and a control frame goes out whole, so
// a peer never sees more than one bulk and one control message begun and
// unfinished. MuxReader's maxMuxAnnounced is sized to exactly that
// (TestMuxWriterHalfSentMessagesBounded pins it).
//
// Called with mw.mu held and the write token owned; returns with mw.mu
// held. Returns the write error, if any (also recorded in mw.err).
func (mw *MuxWriter) drainLocked(inlineFor *muxFrame) error {
	for mw.err == nil {
		var f *muxFrame
		control := false
		switch {
		case len(mw.control) > 0:
			f = popFrame(&mw.control)
			control = true
		case mw.cur != nil:
			f = mw.cur
		case len(mw.bulk) > 0 && (inlineFor == nil || mw.bulk[0] == inlineFor):
			mw.cur = popFrame(&mw.bulk)
			f = mw.cur
		default:
			return nil
		}
		mw.mu.Unlock()

		var full bool
		var err error
		if control {
			// Control frames are small: write all their segments
			// back to back rather than round-tripping the queue.
			full, err = mw.writeSegments(f, -1)
		} else {
			full, err = mw.writeSegments(f, 1)
		}
		if err != nil {
			mw.retire(f, err)
			if !control {
				mw.mu.Lock()
				mw.cur = nil
				mw.mu.Unlock()
			}
			mw.die(err)
			mw.mu.Lock()
			return err
		}
		if full && !control {
			mw.mu.Lock()
			mw.cur = nil
			mw.mu.Unlock()
		}
		if full {
			mw.retire(f, nil)
		}
		mw.mu.Lock()
	}
	return mw.err
}

// popFrame takes a lane's first frame, moving the rest down: lanes are a
// few frames long, and one advanced with lane[1:] creeps along its array
// and is reallocated every few frames.
func popFrame(lane *[]*muxFrame) *muxFrame {
	q := *lane
	f := q[0]
	n := copy(q, q[1:])
	q[n] = nil
	*lane = q[:n]
	return f
}

// segHeader encodes the header of f's next segment, n payload bytes with
// the given flags, into the tail of room and returns the encoded bytes.
// The first segment of a multi-segment message also announces the total.
func (f *muxFrame) segHeader(room []byte, n int, flags uint8, total int) []byte {
	hdr := room[len(room)-muxHdrSize:]
	if f.off == 0 && flags&FlagMore != 0 {
		flags |= FlagTotal
		hdr = room[len(room)-muxHdrRoom:]
		binary.LittleEndian.PutUint32(hdr[muxHdrSize:], uint32(total))
	}
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(hdr)-4+n))
	binary.LittleEndian.PutUint16(hdr[4:6], uint16(f.t))
	binary.LittleEndian.PutUint32(hdr[6:10], f.stream)
	hdr[10] = f.class
	hdr[11] = flags
	return hdr
}

// writeSegments writes up to maxSegs segments of f (all of them if
// maxSegs < 0). Reports whether the frame is fully written.
func (mw *MuxWriter) writeSegments(f *muxFrame, maxSegs int) (bool, error) {
	total := f.payloadLen()
	for segs := 0; maxSegs < 0 || segs < maxSegs; segs++ {
		n := total - f.off
		var flags uint8
		// Cut at the segment size, but let a final segment run up to 25%
		// over instead of spawning a tiny trailer: payloads just past the
		// boundary (a chunk plus its envelope fields) stay one segment,
		// and the extra control-frame wait is bounded at segment/4 bytes.
		if n > mw.segment+mw.segment/4 {
			n = mw.segment
			flags = FlagMore
		}
		if f.p != nil {
			if err := mw.writeRefSegment(f, n, flags, total); err != nil {
				return false, err
			}
			f.off += n
			if flags == 0 {
				return true, nil
			}
			continue
		}
		hdr := f.segHeader(f.buf[:muxHdrRoom+f.off], n, flags, total)
		at := muxHdrRoom + f.off
		if _, err := mw.w.Write(f.buf[at-len(hdr) : at+n]); err != nil {
			return false, err
		}
		f.off += n
		if flags == 0 {
			return true, nil
		}
	}
	return false, nil
}

// writeRefSegment writes one n-byte segment of a by-reference frame
// starting at logical payload offset f.off: the segment header, any
// head/tail bytes it covers and a body range in memory — or, on a
// *net.TCPConn, in a file mapping (writevMapped) — as one vectored write;
// any other body range after the header, through the payload (sendfile on
// TCP, pooled copy elsewhere), or as zeros once withdrawn. The caller
// holds the write token, so scratch and vecs are exclusively ours.
func (mw *MuxWriter) writeRefSegment(f *muxFrame, n int, flags uint8, total int) error {
	hdr := f.segHeader(mw.scratch[:], n, flags, total)

	off, end := f.off, f.off+n
	bodyEnd := f.pre + int(f.body)
	bufs := append(mw.vecs[:0], hdr)
	if off < f.pre {
		bufs = append(bufs, f.buf[muxHdrRoom+off:muxHdrRoom+min(end, f.pre)])
	}
	var tail []byte // segment's slice of the post-body bytes
	if end > bodyEnd {
		ts := max(off, bodyEnd) - bodyEnd
		tail = f.buf[muxHdrRoom+f.pre+ts : muxHdrRoom+f.pre+(end-bodyEnd)]
	}
	bs, be := int64(max(off, f.pre)-f.pre), int64(min(end, bodyEnd)-f.pre)
	live := be > bs && !cancelled(f.cancel)
	if mp, ok := f.p.(*MappedPayload); live && ok {
		if _, tcp := mw.w.(*net.TCPConn); tcp {
			return mw.writevMapped(bufs, mp, bs, be, tail)
		}
	}
	if mp, mem := f.p.(memPayload); live && mem {
		bufs = mp.AppendRange(bufs, bs, be-bs)
	} else if be > bs {
		// Flush header (+ head overlap) first, then stream the body.
		if _, err := mw.writev(bufs); err != nil {
			return err
		}
		if cancelled(f.cancel) {
			// Withdrawn mid-frame: the segment's body range goes out as
			// zeros instead of touching the store.
			mw.Stats.addCancelled(be - bs)
			if err := writeZeros(mw.w, be-bs, mw.Stats); err != nil {
				return err
			}
		} else if err := f.p.WriteRange(mw.w, bs, be-bs, mw.Stats); err != nil {
			return err
		}
		if len(tail) > 0 {
			if _, err := mw.w.Write(tail); err != nil {
				return err
			}
		}
		return nil
	}
	if len(tail) > 0 {
		bufs = append(bufs, tail)
	}
	_, err := mw.writev(bufs)
	return err
}

// writev writes bufs, a list built on vecs, in one vectored write (one
// Write per element on a writer that has none): through a field, for a
// local's address would escape. vecs keeps an array the list outgrew. It
// reports how many bytes were written.
func (mw *MuxWriter) writev(bufs net.Buffers) (int64, error) {
	mw.vecs, mw.out = bufs[:0], bufs
	n, err := mw.out.WriteTo(mw.w)
	mw.Stats.addWritev(1)
	return n, err
}

// retire releases f and tells the depth hook it left the queue.
func (mw *MuxWriter) retire(f *muxFrame, err error) {
	if mw.DepthHook != nil {
		mw.DepthHook(f.class, -1)
	}
	f.finish(err)
}

// die records the first write error, fails every queued frame, and fires
// OnError. The writer goroutine exits right after.
func (mw *MuxWriter) die(err error) {
	mw.mu.Lock()
	if mw.err == nil {
		mw.err = err
	}
	control, bulk := mw.control, mw.bulk
	if mw.cur != nil {
		bulk = append(bulk, mw.cur) // half-written behind the control frame that failed
	}
	mw.control, mw.bulk, mw.cur = nil, nil, nil
	mw.cond.Broadcast()
	mw.mu.Unlock()
	for _, f := range control {
		mw.retire(f, err)
	}
	for _, f := range bulk {
		mw.retire(f, err)
	}
	if mw.OnError != nil {
		mw.OnError(err)
	}
}

// MuxFrame is one reassembled message delivered by MuxReader.Read. Msg
// may alias Buf (a pooled buffer): the receiver owns Buf and must
// wire.PutBuf it once Msg — or any byte field of it not detached via
// Own — is no longer needed. A landed message has no Buf.
type MuxFrame struct {
	Stream uint32
	Class  uint8
	Msg    Message
	Buf    []byte
}

// Landing is memory a requester registered for the body of the ReadResp
// that answers it (MuxReader.Dest), or the receiver of a WriteReq granted
// its body (WriteLanding): the reader moves the body from the connection
// into it, with no frame buffer in between.
type Landing interface {
	// Land reads the n body bytes at body offset off from r and reports
	// how many of them reached its memory. It must consume all n, reading
	// those it has no room for (or no longer wants) into a discard sink.
	// Segments land in body order, one call at a time. An error is fatal
	// to the connection.
	Land(r io.Reader, off, n int) (int, error)
}

// WriteLanding is memory a receiver grants the body of a WriteReq once it
// knows where the body goes (MuxReader.WriteDest). A delivered request
// hands the landing to the receiver (WriteReq.Lander), which owns it from
// then on. A request that is never delivered — its connection dies
// mid-body, or the message is refused — is aborted by the reader: Abort is
// called exactly once.
type WriteLanding interface {
	Landing
	Abort()
}

// The bytes of a landed message before its body, from its field list: a
// ReadResp's u32 body length; a WriteReq's handle, offset and u32 body
// length. After the body come its tail: a ReadResp's EOF flag, a
// WriteReq's optional tenant.
var readRespHead, writeReqHead = bodyAt(new(ReadResp)), bodyAt(new(WriteReq))

// bodyAt is where the body of m, a message with fixed-width fields ahead
// of its body, begins.
func bodyAt(m Message) int {
	c := Codec{ref: true}
	m.Fields(&c)
	return int(c.at)
}

// maxWriteReqTail is the longest tail a WriteReq can decode: a tenant of
// MaxStringLen bytes behind its length prefix. A WriteReq with a longer
// one is not offered to WriteDest; its buffered decode refuses it.
const maxWriteReqTail = 4 + MaxStringLen

// muxAsm is a stream's partially received message.
type muxAsm struct {
	t     MsgType
	class uint8
	buf   []byte // pooled, taken at the announced total; nil while landing
	total int
	got   int // payload bytes received

	// A landing message keeps its head and tail, in ht, and hands its body
	// to land. A WriteReq starts out landing whether or not it will land:
	// once its head is in, WriteDest decides, and if it declines, the rest
	// of the message goes to buf after the head.
	land  Landing
	wl    WriteLanding // land of a WriteReq, until the request is delivered
	hl    int          // the head's length
	body  int          // the body's length, once the head is in
	ht    []byte       // the head, then the tail
	small [64]byte     // backs ht when it fits: a head and an EOF flag or a short tenant
}

// MuxReader reassembles mux frames from one connection. Not safe for
// concurrent use (one demux goroutine per connection owns it).
type MuxReader struct {
	r         *bufio.Reader
	asm       map[uint32]*muxAsm
	announced int // sum of the assembling streams' totals

	// Dest, if set, is asked at the first segment of every ReadResp for
	// the Landing of its stream; nil keeps that response in a frame buffer.
	// WriteDest, if set, is asked once a WriteReq's handle, offset and body
	// length are in for the landing of its n body bytes; nil keeps that
	// request in a frame buffer. It is not asked about a body the message
	// cannot hold. Stats, if set, counts how ReadResp and WriteReq bodies
	// arrived. All must be set before the first Read.
	Dest      func(stream uint32) Landing
	WriteDest func(handle, off uint64, n int) WriteLanding
	Stats     *FrameStats
}

// NewMuxReader returns a reader decoding mux frames from r.
func NewMuxReader(r io.Reader) *MuxReader {
	return &MuxReader{r: bufio.NewReaderSize(r, muxReadBuf), asm: make(map[uint32]*muxAsm)}
}

// Read returns the next complete message, transparently reassembling
// segmented streams. See MuxFrame for buffer ownership. Any error is
// fatal to the connection: the caller stops reading and Closes.
func (mr *MuxReader) Read() (MuxFrame, error) {
	for {
		var hdr [muxHdrRoom]byte
		if _, err := io.ReadFull(mr.r, hdr[:muxHdrSize]); err != nil {
			return MuxFrame{}, err
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n > MaxFrameSize {
			return MuxFrame{}, ErrFrameTooLarge
		}
		t := MsgType(binary.LittleEndian.Uint16(hdr[4:6]))
		stream := binary.LittleEndian.Uint32(hdr[6:10])
		class := hdr[10]
		more := hdr[11]&FlagMore != 0
		plen := int(n) - muxOverhead

		a := mr.asm[stream]
		first := a == nil
		if (hdr[11]&FlagTotal != 0) != (first && more) {
			return MuxFrame{}, errors.New("wire: mux total must be announced on exactly the first of several segments")
		}
		total := plen
		if first && more {
			if _, err := io.ReadFull(mr.r, hdr[muxHdrSize:]); err != nil {
				return MuxFrame{}, err
			}
			plen -= muxTotalSize
			total = int(binary.LittleEndian.Uint32(hdr[muxHdrSize:]))
			if total > MaxFrameSize || mr.announced+total > maxMuxAnnounced {
				return MuxFrame{}, ErrFrameTooLarge
			}
			if len(mr.asm) >= maxMuxAssembling {
				return MuxFrame{}, fmt.Errorf("wire: more than %d streams assembling", maxMuxAssembling)
			}
		}
		if plen < 0 {
			return MuxFrame{}, ErrShortPayload
		}
		if first {
			a = &muxAsm{t: t, class: class, total: total}
			switch {
			case t == MsgReadResp && mr.Dest != nil:
				if a.land = mr.Dest(stream); a.land != nil {
					a.hl = readRespHead
				}
			case t == MsgWriteReq && mr.WriteDest != nil:
				a.hl = writeReqHead // whether it lands is decided at the head's end
			}
			if a.hl == 0 {
				a.buf = GetBuf(total)[:0]
			} else {
				a.ht = a.small[:0]
			}
			if more {
				mr.asm[stream] = a
				mr.announced += total
			}
		} else if a.t != t {
			return MuxFrame{}, fmt.Errorf("wire: mux segment type changed mid-stream (%v then %v)", a.t, t)
		}
		if need := a.got + plen; need > a.total || (!more && need != a.total) {
			return MuxFrame{}, fmt.Errorf("wire: mux message of %d bytes announced as %d", need, a.total)
		}
		if err := mr.segment(a, plen); err != nil {
			if first && !more {
				a.release() // half-assembled streams are released by Close
			}
			return MuxFrame{}, err
		}
		if more {
			continue
		}
		if !first {
			delete(mr.asm, stream)
			mr.announced -= a.total
		}
		var msg Message
		var err error
		if a.buf == nil {
			msg, err = a.landed()
		} else if msg, err = decodeFrame(a.t, a.buf); err == nil {
			if pc, ok := msg.(payloadCarrier); ok {
				data, _ := pc.bulkRef()
				mr.Stats.addRecvCopied(int64(len(data)))
			}
		}
		if err != nil {
			a.release()
			return MuxFrame{}, err
		}
		return MuxFrame{Stream: stream, Class: a.class, Msg: msg, Buf: a.buf}, nil
	}
}

// segment reads plen payload bytes of a's message: into its frame buffer,
// or, while it lands, part by part through landPart.
func (mr *MuxReader) segment(a *muxAsm, plen int) error {
	for plen > 0 {
		k := plen
		var err error
		if a.buf != nil {
			_, err = io.ReadFull(mr.r, a.buf[a.got:a.got+k])
			a.buf = a.buf[:a.got+k]
		} else {
			k, err = mr.landPart(a, plen)
		}
		if err != nil {
			return err
		}
		a.got += k
		plen -= k
	}
	return nil
}

// landPart reads what is left of a landing message's segment, up to plen
// bytes, from the part a.got is in — head, body or tail — and reports how
// many it read.
func (mr *MuxReader) landPart(a *muxAsm, plen int) (int, error) {
	at := a.got
	switch {
	case at < a.hl:
		k := min(plen, a.hl-at)
		a.ht = a.ht[:at+k]
		if _, err := io.ReadFull(mr.r, a.ht[at:]); err != nil {
			return 0, err
		}
		if at+k == a.hl {
			return k, mr.headIn(a)
		}
		return k, nil
	case at < a.hl+a.body:
		k := min(plen, a.hl+a.body-at)
		landed, err := a.land.Land(mr.r, at-a.hl, k)
		mr.Stats.addLanded(int64(landed))
		return k, err
	default: // the tail, sized by headIn to what the total leaves
		n := len(a.ht)
		a.ht = a.ht[:n+plen]
		_, err := io.ReadFull(mr.r, a.ht[n:])
		return plen, err
	}
}

// headIn settles, once a landing message's head is in, where the rest of
// it goes. A ReadResp's body length must account for its payload exactly,
// or the message is refused with the error its buffered decode would give.
// A WriteReq whose body and tail fit its payload is offered to WriteDest;
// one that does not fit, or that WriteDest declines, goes on in a frame
// buffer, whose decode treats it as if it had never been offered.
func (mr *MuxReader) headIn(a *muxAsm) error {
	a.body = int(binary.LittleEndian.Uint32(a.ht[a.hl-4:])) // Body's length prefix ends the head
	tail := a.total - a.hl - a.body
	if a.t == MsgReadResp {
		if tail < 1 {
			return ErrShortPayload
		} else if tail > 1 {
			return ErrTrailingBytes
		}
	} else if tail >= 0 && tail <= maxWriteReqTail {
		// The head alone decodes: what follows a WriteReq's body is optional.
		var m WriteReq
		if err := decode(&m, a.ht, true); err != nil {
			return err
		}
		if wl := mr.WriteDest(m.Handle, m.Offset, a.body); wl != nil {
			a.land, a.wl = wl, wl
		}
	}
	switch {
	case a.land == nil:
		a.buf = append(GetBuf(a.total)[:0], a.ht...)
	case a.hl+tail <= len(a.small):
		a.ht = a.small[: a.hl : a.hl+tail]
	default:
		a.ht = append(make([]byte, 0, a.hl+tail), a.ht...)
	}
	return nil
}

// landed decodes a landing message once all of it is in: its head and tail
// through its field list, as the buffered decode would, with the body's
// length in Landed. A delivered WriteReq hands its landing over in Lander.
func (a *muxAsm) landed() (Message, error) {
	if a.got < a.hl {
		return nil, ErrShortPayload // the message ended inside its head
	}
	m := New(a.t)
	if err := decode(m, a.ht, true); err != nil {
		return nil, err
	}
	switch m := m.(type) {
	case *ReadResp:
		m.Landed = a.body
	case *WriteReq:
		m.Landed, m.Lander = a.body, a.wl
	}
	a.wl = nil
	return m, nil
}

// release frees what a message that will not be delivered holds: its frame
// buffer, and the landing of a WriteReq's body, which it aborts.
func (a *muxAsm) release() {
	PutBuf(a.buf)
	if a.wl != nil {
		a.wl.Abort()
		a.wl = nil
	}
}

// Close releases the half-assembled streams: their frame buffers, and the
// landings of WriteReq bodies that now will never be delivered.
func (mr *MuxReader) Close() {
	for s, a := range mr.asm {
		a.release()
		delete(mr.asm, s)
	}
}
