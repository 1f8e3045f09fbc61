// Package wire implements the binary message protocol spoken between DOSAS
// clients, metadata servers, and storage servers.
//
// Every message travels in a frame:
//
//	+----------+----------+--------------------+
//	| len u32  | type u16 | payload (len-2) B  |
//	+----------+----------+--------------------+
//
// where len counts the type field plus the payload: fixed-width
// little-endian integers and length-prefixed byte strings, trailing
// optional fields last. Each message describes its payload once, as the
// list of its fields in its Fields method; run through a Codec, that list
// encodes, decodes, splits a bulk body from the bytes around it and Owns
// (codec.go). The format is deliberately hand-rolled (no reflection, no
// gob, no generated code) so that framing cost is predictable on the I/O
// fast path and so the protocol is language-independent, mirroring
// PVFS2's BMI message conventions.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// MsgType identifies the kind of message carried in a frame.
type MsgType uint16

// Message type codes. The numeric values are part of the wire format;
// append only, never renumber.
const (
	MsgInvalid MsgType = iota

	// Generic control.
	MsgError
	MsgPing
	MsgPong

	// Metadata operations.
	MsgCreateReq
	MsgCreateResp
	MsgOpenReq
	MsgOpenResp
	MsgStatReq
	MsgStatResp
	MsgRemoveReq
	MsgRemoveResp
	MsgListReq
	MsgListResp
	MsgSetSizeReq
	MsgSetSizeResp

	// Data (stripe) operations.
	MsgReadReq
	MsgReadResp
	MsgWriteReq
	MsgWriteResp
	MsgTruncReq
	MsgTruncResp

	// Active storage operations.
	MsgActiveReadReq
	MsgActiveReadResp
	MsgProbeReq
	MsgProbeResp
	MsgCancelReq
	MsgCancelResp

	// Active transform (write-back) operations.
	MsgTransformReq
	MsgTransformResp

	// Local stream inspection (fsck/repair).
	MsgLocalSizeReq
	MsgLocalSizeResp

	// Codes 32–41 belonged to the retired introspection pairs (stats,
	// trace fetch, health, series fetch, decision log). Reserved: a peer
	// still sending one gets ErrUnknownType.
	_
	_
	_
	_
	_
	_
	_
	_
	_
	_

	// Connection-mode negotiation: open multiplexed framing (mux.go).
	MsgHelloReq
	MsgHelloResp

	// Codes 44–51: retired introspection pairs (event fetch, alert fetch,
	// tenant stats, range query), reserved like 32–41.
	_
	_
	_
	_
	_
	_
	_
	_

	// Introspection: one request for every observability plane.
	MsgIntrospectReq
	MsgIntrospectResp

	msgSentinel // keep last
)

// msgTable describes every code below msgSentinel: its name, the mux
// priority class of its frames and, for a live message, its constructor.
// Stripe-transfer carriers are bulk; everything else (Ping, Probe, Cancel,
// Introspect, errors, metadata ops, ...) is control. Retired codes have no
// entry.
var msgTable = [msgSentinel]struct {
	name  string
	class uint8
	new   func() Message
}{
	MsgInvalid:        {name: "invalid"},
	MsgError:          {"error", ClassControl, func() Message { return new(ErrorMsg) }},
	MsgPing:           {"ping", ClassControl, func() Message { return new(Ping) }},
	MsgPong:           {"pong", ClassControl, func() Message { return new(Pong) }},
	MsgCreateReq:      {"create.req", ClassControl, func() Message { return new(CreateReq) }},
	MsgCreateResp:     {"create.resp", ClassControl, func() Message { return new(CreateResp) }},
	MsgOpenReq:        {"open.req", ClassControl, func() Message { return new(OpenReq) }},
	MsgOpenResp:       {"open.resp", ClassControl, func() Message { return new(OpenResp) }},
	MsgStatReq:        {"stat.req", ClassControl, func() Message { return new(StatReq) }},
	MsgStatResp:       {"stat.resp", ClassControl, func() Message { return new(StatResp) }},
	MsgRemoveReq:      {"remove.req", ClassControl, func() Message { return new(RemoveReq) }},
	MsgRemoveResp:     {"remove.resp", ClassControl, func() Message { return new(RemoveResp) }},
	MsgListReq:        {"list.req", ClassControl, func() Message { return new(ListReq) }},
	MsgListResp:       {"list.resp", ClassControl, func() Message { return new(ListResp) }},
	MsgSetSizeReq:     {"setsize.req", ClassControl, func() Message { return new(SetSizeReq) }},
	MsgSetSizeResp:    {"setsize.resp", ClassControl, func() Message { return new(SetSizeResp) }},
	MsgReadReq:        {"read.req", ClassBulk, func() Message { return new(ReadReq) }},
	MsgReadResp:       {"read.resp", ClassBulk, func() Message { return new(ReadResp) }},
	MsgWriteReq:       {"write.req", ClassBulk, func() Message { return new(WriteReq) }},
	MsgWriteResp:      {"write.resp", ClassBulk, func() Message { return new(WriteResp) }},
	MsgTruncReq:       {"trunc.req", ClassControl, func() Message { return new(TruncReq) }},
	MsgTruncResp:      {"trunc.resp", ClassControl, func() Message { return new(TruncResp) }},
	MsgActiveReadReq:  {"activeread.req", ClassBulk, func() Message { return new(ActiveReadReq) }},
	MsgActiveReadResp: {"activeread.resp", ClassBulk, func() Message { return new(ActiveReadResp) }},
	MsgProbeReq:       {"probe.req", ClassControl, func() Message { return new(ProbeReq) }},
	MsgProbeResp:      {"probe.resp", ClassControl, func() Message { return new(ProbeResp) }},
	MsgCancelReq:      {"cancel.req", ClassControl, func() Message { return new(CancelReq) }},
	MsgCancelResp:     {"cancel.resp", ClassControl, func() Message { return new(CancelResp) }},
	MsgTransformReq:   {"transform.req", ClassBulk, func() Message { return new(TransformReq) }},
	MsgTransformResp:  {"transform.resp", ClassBulk, func() Message { return new(TransformResp) }},
	MsgLocalSizeReq:   {"localsize.req", ClassControl, func() Message { return new(LocalSizeReq) }},
	MsgLocalSizeResp:  {"localsize.resp", ClassControl, func() Message { return new(LocalSizeResp) }},
	MsgHelloReq:       {"hello.req", ClassControl, func() Message { return new(HelloReq) }},
	MsgHelloResp:      {"hello.resp", ClassControl, func() Message { return new(HelloResp) }},
	MsgIntrospectReq:  {"introspect.req", ClassControl, func() Message { return new(IntrospectReq) }},
	MsgIntrospectResp: {"introspect.resp", ClassControl, func() Message { return new(IntrospectResp) }},
}

// String returns a human-readable name for the message type.
func (t MsgType) String() string {
	if t < msgSentinel && msgTable[t].name != "" {
		return msgTable[t].name
	}
	return fmt.Sprintf("msgtype(%d)", uint16(t))
}

// Valid reports whether t is a live message type: not MsgInvalid, and
// neither past the table nor a retired code.
func (t MsgType) Valid() bool { return t < msgSentinel && msgTable[t].new != nil }

// New returns a zero message of the given type, or nil if t is unknown.
func New(t MsgType) Message {
	if !t.Valid() {
		return nil
	}
	return msgTable[t].new()
}

// ClassOf maps a message type to its wire priority class (msgTable).
func ClassOf(t MsgType) uint8 {
	if t < msgSentinel {
		return msgTable[t].class
	}
	return ClassControl
}

// Message is implemented by every protocol message.
type Message interface {
	// Type returns the wire code for this message.
	Type() MsgType
	// Fields runs the message's fields through c in wire order: the one
	// description of its payload, which encodes, decodes, splits a bulk
	// body from its head and tail, and Owns (Codec).
	Fields(c *Codec)
}

// MaxFrameSize bounds a single frame. Stripe transfers are chunked below
// this by the pfs layer; a peer announcing a larger frame is protocol abuse
// and the connection is dropped.
const MaxFrameSize = 64 << 20 // 64 MiB

// Framing errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrameSize")
	ErrShortPayload  = errors.New("wire: payload truncated")
	ErrTrailingBytes = errors.New("wire: trailing bytes after payload")
	ErrUnknownType   = errors.New("wire: unknown message type")
)

// WriteOptions selects how WriteMessageOpts moves a bulk body.
type WriteOptions struct {
	// Stats, when non-nil, counts sendfile/writev/copied bytes for the
	// frames written with these options.
	Stats *FrameStats
	// Plain disables the by-reference fast paths: every frame is
	// materialized in the encode buffer and written contiguously,
	// exactly as WriteMessage always did (A/B benchmarking, and a
	// belt-and-braces escape hatch).
	Plain bool
}

// WriteMessage encodes m into a frame and writes it to w. The frame is
// built in a pooled buffer that is recycled before returning, so w must
// not retain the slice passed to Write (the io.Writer contract).
func WriteMessage(w io.Writer, m Message) error {
	return WriteMessageOpts(w, m, WriteOptions{})
}

// WriteMessageOpts is WriteMessage with a by-reference fast path for
// bulk bodies (payloadCarrier messages): a store-backed Payload is
// streamed between the encoded frame head and tail — sendfile(2) on TCP,
// a pooled staging copy elsewhere — and a body in memory (Data, or a
// Payload over the caller's buffer) of at least vectoredMin bytes is
// coalesced with its head and tail in one vectored write (net.Buffers),
// skipping the encode copy. Either way the bytes on
// the wire are identical to the classic framing, so the receiving side
// is unchanged. Errors after the frame head has been written leave the
// connection mid-frame and must be treated as fatal by the caller (they
// already are: both framings drop the connection on write errors).
func WriteMessageOpts(w io.Writer, m Message, o WriteOptions) error {
	pc, bulk := m.(payloadCarrier)
	if bulk && !o.Plain {
		data, p := pc.bulkRef()
		if p == nil && len(data) >= vectoredMin {
			p = memBytes(data)
		}
		if worthRef(p) {
			return writeCarrierFrame(w, m, p, o.Stats)
		}
	}
	hint := 64
	if s, ok := m.(sizeHinter); ok {
		hint = s.encodedSizeHint() + 6
	}
	c := &Codec{buf: GetBuf(hint)[:6]} // room for len+type header
	m.Fields(c)
	if c.err != nil {
		PutBuf(c.buf)
		return c.err
	}
	if bulk {
		// The bulk body was staged through the encode buffer.
		o.Stats.addCopied(bodyLen(pc))
	}
	n := len(c.buf) - 4 // frame length excludes the length field itself
	if n > MaxFrameSize {
		PutBuf(c.buf)
		return ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(c.buf[0:4], uint32(n))
	binary.LittleEndian.PutUint16(c.buf[4:6], uint16(m.Type()))
	_, err := w.Write(c.buf)
	PutBuf(c.buf)
	return err
}

// bodyLen is the length of a bulk message's body.
func bodyLen(pc payloadCarrier) int64 {
	data, p := pc.bulkRef()
	if p != nil {
		return p.Len()
	}
	return int64(len(data))
}

// sizeHinter lets bulk messages announce an upper bound on their encoded
// size, so WriteMessage can draw a correctly sized pooled buffer instead
// of growing by repeated append.
type sizeHinter interface {
	encodedSizeHint() int
}

// encodeSplit runs m's fields, its bulk body left out, into a pooled
// buffer behind room bytes left for the frame header: the head is
// c.buf[:c.at], the tail the rest. The caller recycles c.buf.
func encodeSplit(m Message, room int) (*Codec, error) {
	c := &Codec{buf: GetBuf(64)[:room], ref: true}
	m.Fields(c)
	if c.err != nil {
		PutBuf(c.buf)
		return nil, c.err
	}
	return c, nil
}

// writeCarrierFrame writes one frame whose bulk body p travels by
// reference. The head (frame header + everything before the body) and
// tail (everything after) are encoded into one small pooled buffer.
func writeCarrierFrame(w io.Writer, m Message, p Payload, st *FrameStats) error {
	body := p.Len()
	c, err := encodeSplit(m, 6)
	if err != nil {
		return err
	}
	n := int64(len(c.buf)-4) + body
	if n > MaxFrameSize {
		PutBuf(c.buf)
		return ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(c.buf[0:4], uint32(n))
	binary.LittleEndian.PutUint16(c.buf[4:6], uint16(m.Type()))
	head, tail := c.buf[:c.at], c.buf[c.at:]
	flag := cancelFlagOf(m)
	if mp, mem := p.(memPayload); mem && !cancelled(flag) {
		// In memory: head, the body's pieces and tail in one vectored write.
		bufs := mp.AppendRange(net.Buffers{head}, 0, body)
		if len(tail) > 0 {
			bufs = append(bufs, tail)
		}
		_, err = bufs.WriteTo(w)
		st.addWritev(1)
	} else if _, err = w.Write(head); err == nil {
		// Stream the body in bounded slices, polling the cancel flag
		// between them: a withdrawn read stops hitting the store and
		// zero-fills the rest of the frame (its length is committed) — a
		// body in memory too, so the receiver can never act on a
		// withdrawn read's data and accounting sees the cancellation.
		for off := int64(0); off < body && err == nil; {
			if cancelled(flag) {
				st.addCancelled(body - off)
				err = writeZeros(w, body-off, st)
				break
			}
			k := min(body-off, carrierSegment)
			err = p.WriteRange(w, off, k, st)
			off += k
		}
		if err == nil && len(tail) > 0 {
			_, err = w.Write(tail)
		}
	}
	PutBuf(c.buf)
	return err
}

// carrierSegment bounds how many body bytes the ordered framing moves
// between cancel-flag polls — the mux framing's segment granularity,
// applied to the contiguous path.
const carrierSegment int64 = 256 << 10

// ReadMessage reads one frame from r and decodes it into a freshly
// allocated message of the announced type. The fast path uses a
// FrameReader instead, which recycles its payload buffer across frames.
func ReadMessage(r io.Reader) (Message, error) {
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n < 2 {
		return nil, ErrShortPayload
	}
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	t := MsgType(binary.LittleEndian.Uint16(hdr[4:6]))
	payload := make([]byte, n-2)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return decodeFrame(t, payload)
}

func decodeFrame(t MsgType, payload []byte) (Message, error) {
	m := New(t)
	if m == nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownType, t)
	}
	if err := decode(m, payload, false); err != nil {
		return nil, err
	}
	return m, nil
}

// decode runs m's fields over payload, which they must consume exactly.
// With ref the payload holds no bulk body: only its length prefix.
func decode(m Message, payload []byte, ref bool) error {
	c := Codec{mode: decoding, buf: payload, ref: ref}
	m.Fields(&c)
	if c.err != nil {
		return c.err
	}
	if len(c.buf) != 0 {
		return ErrTrailingBytes
	}
	return nil
}

// FrameReader decodes frames from one connection, reusing a single pooled
// payload buffer across frames. Byte-slice fields of a returned message
// (ReadResp.Data, WriteReq.Data, ActiveReadReq.Params, ...) may alias
// that buffer and are valid only until the next Read on the same reader;
// callers that retain a message across frames must call Own on it first.
// A FrameReader is not safe for concurrent use.
type FrameReader struct {
	r   io.Reader
	buf []byte // pooled; grown on demand, released by Close
}

// NewFrameReader returns a reader decoding frames from r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// Read decodes the next frame. See the type comment for the lifetime of
// the returned message's byte fields.
func (fr *FrameReader) Read() (Message, error) {
	var hdr [6]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n < 2 {
		return nil, ErrShortPayload
	}
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	t := MsgType(binary.LittleEndian.Uint16(hdr[4:6]))
	need := int(n - 2)
	if cap(fr.buf) < need {
		if fr.buf != nil {
			PutBuf(fr.buf)
		}
		fr.buf = GetBuf(need)
	}
	payload := fr.buf[:need]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, err
	}
	return decodeFrame(t, payload)
}

// Close releases the reader's pooled buffer. The reader must not be used
// afterwards, and no message previously returned by Read may still be in
// use un-Owned.
func (fr *FrameReader) Close() {
	if fr.buf != nil {
		PutBuf(fr.buf)
		fr.buf = nil
	}
}

// Own detaches m's byte fields from any shared decode buffer and returns
// m.
func Own(m Message) Message {
	m.Fields(&owner)
	return m
}
