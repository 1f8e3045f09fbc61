package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
)

// Encoding limits.
const (
	// MaxStringLen bounds any single length-prefixed string. Byte fields
	// and bulk bodies are bounded by the frame size instead.
	MaxStringLen = 1 << 16
)

var errStringTooLong = errors.New("wire: string field exceeds MaxStringLen")

// codecMode is what a Codec does with the fields a list runs through it.
type codecMode uint8

const (
	encoding codecMode = iota // append each field to buf
	decoding                  // read each field from buf
	owning                    // detach byte fields from the buffer they alias
)

// Codec runs a field list — a message's Fields method, Layout.Fields, a
// journal entry — in one of three modes, so that the list, written once,
// is the encoder, the decoder and Own. Each method takes a pointer to its
// field: encoding reads it, decoding sets it, owning replaces a byte
// field with a private copy and leaves the rest alone.
//
// The zero Codec encodes into a fresh buffer; NewDecoder decodes one.
// Errors are sticky: after the first failure every later field is a
// no-op (decoding leaves it zero) and Err reports the failure once at the
// end, so field lists carry no error plumbing.
type Codec struct {
	mode codecMode

	// ref leaves a bulk body out of buf (Body). Encoding, Body appends
	// only the body's length prefix; decoding, it reads the prefix and no
	// body bytes. at is where Body put the body in an encoded buf: the
	// head before it, the tail after. It is an int32 (a frame is at most
	// MaxFrameSize) so that the Codec, allocated once per frame, stays
	// at 48 bytes: at 64 small-message writes measured ~10 % slower.
	ref bool
	at  int32

	buf []byte // decoding: what is left unread
	err error
}

// NewDecoder returns a Codec decoding buf.
func NewDecoder(buf []byte) *Codec { return &Codec{mode: decoding, buf: buf} }

// owner runs field lists in owning mode. Owning never writes to the Codec
// itself, so every goroutine may share this one.
var owner = Codec{mode: owning}

// Buf returns the bytes encoded so far.
func (c *Codec) Buf() []byte { return c.buf }

// Err returns the first error met.
func (c *Codec) Err() error { return c.err }

// Decoding reports whether c decodes: a list sets the fields it derives
// from wire values only then.
func (c *Codec) Decoding() bool { return c.mode == decoding }

// Remaining reports how many bytes a decode has left unread.
func (c *Codec) Remaining() int { return len(c.buf) }

// More brackets a group of trailing optional fields: those a peer that
// predates them neither sends nor expects. Encoding, it returns send, the
// sender's choice to include the group; decoding, whether bytes remain;
// owning, true.
func (c *Codec) More(send bool) bool {
	switch c.mode {
	case encoding:
		return send
	case decoding:
		return len(c.buf) > 0
	}
	return true
}

func (c *Codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// take consumes the next n bytes of a decode. It returns nil when c does
// not decode, after an error, and when fewer than n remain, which fails
// the decode. n is unsigned and compared before any conversion to int, so
// a length prefix of 2^31 or more cannot turn negative on a 32-bit int.
func (c *Codec) take(n uint64) []byte {
	if c.mode != decoding || c.err != nil {
		return nil
	}
	if n > uint64(len(c.buf)) {
		c.err = ErrShortPayload
		return nil
	}
	b := c.buf[:n:n]
	c.buf = c.buf[n:]
	return b
}

// prefix reads a u32 length prefix; 0 when the decode has failed.
func (c *Codec) prefix() uint64 {
	if b := c.take(4); b != nil {
		return uint64(binary.LittleEndian.Uint32(b))
	}
	return 0
}

// U8 is a byte.
func (c *Codec) U8(v *uint8) {
	if c.mode == encoding {
		c.buf = append(c.buf, *v)
	} else if b := c.take(1); b != nil {
		*v = b[0]
	}
}

// Bool is one byte, 0 or 1; decoding, any non-zero byte is true.
func (c *Codec) Bool(v *bool) {
	if c.mode == encoding {
		b := byte(0)
		if *v {
			b = 1
		}
		c.buf = append(c.buf, b)
	} else if b := c.take(1); b != nil {
		*v = b[0] != 0
	}
}

// U16 is a little-endian uint16.
func (c *Codec) U16(v *uint16) {
	if c.mode == encoding {
		c.buf = binary.LittleEndian.AppendUint16(c.buf, *v)
	} else if b := c.take(2); b != nil {
		*v = binary.LittleEndian.Uint16(b)
	}
}

// U32 is a little-endian uint32.
func (c *Codec) U32(v *uint32) {
	if c.mode == encoding {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *v)
	} else if b := c.take(4); b != nil {
		*v = binary.LittleEndian.Uint32(b)
	}
}

// U64 is a little-endian uint64.
func (c *Codec) U64(v *uint64) {
	if c.mode == encoding {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	} else if b := c.take(8); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

// I64 is a little-endian int64.
func (c *Codec) I64(v *int64) {
	u := uint64(*v)
	c.U64(&u)
	if c.mode == decoding {
		*v = int64(u)
	}
}

// F64 is an IEEE-754 float64.
func (c *Codec) F64(v *float64) {
	u := math.Float64bits(*v)
	c.U64(&u)
	if c.mode == decoding {
		*v = math.Float64frombits(u)
	}
}

// String is a length-prefixed string of at most MaxStringLen bytes.
func (c *Codec) String(s *string) {
	switch c.mode {
	case encoding:
		if len(*s) > MaxStringLen {
			c.fail(errStringTooLong)
			return
		}
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(len(*s)))
		c.buf = append(c.buf, *s...)
	case decoding:
		if n := c.prefix(); n > MaxStringLen {
			c.fail(errStringTooLong)
		} else if b := c.take(n); b != nil {
			*s = string(b)
		}
	}
}

// Bytes is a length-prefixed byte string. Decoding, it aliases the
// decoded buffer; Own detaches it.
func (c *Codec) Bytes(b *[]byte) {
	switch c.mode {
	case encoding:
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(len(*b)))
		c.buf = append(c.buf, *b...)
	case decoding:
		if n := c.prefix(); c.err == nil {
			*b = c.take(n)
		}
	case owning:
		*b = detach(*b)
	}
}

// U32s is a length-prefixed list of uint32. Decoding, an empty list is
// nil.
func (c *Codec) U32s(vs *[]uint32) {
	switch c.mode {
	case encoding:
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(len(*vs)))
		for _, v := range *vs {
			c.buf = binary.LittleEndian.AppendUint32(c.buf, v)
		}
	case decoding:
		n := c.prefix()
		if b := c.take(4 * n); n > 0 && b != nil {
			*vs = make([]uint32, n)
			for i := range *vs {
				(*vs)[i] = binary.LittleEndian.Uint32(b[4*i:])
			}
		}
	}
}

// Strings is a length-prefixed list of strings. Decoding, an empty list
// is nil.
func (c *Codec) Strings(ss *[]string) {
	switch c.mode {
	case encoding:
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(len(*ss)))
	case decoding:
		// Each string takes at least its 4-byte prefix: refuse a count the
		// rest cannot hold before allocating.
		if n := c.prefix(); 4*n > uint64(c.Remaining()) {
			c.fail(ErrShortPayload)
		} else if n > 0 && c.err == nil {
			*ss = make([]string, n)
		}
	}
	for i := range *ss {
		c.String(&(*ss)[i])
	}
}

// Body is a bulk body: data, or p when it is not nil, as one
// length-prefixed byte string — the one field the frame writers may send
// by reference and a MuxReader may land (see Codec.ref). Decoding fills
// data; owning detaches it.
func (c *Codec) Body(data *[]byte, p Payload) {
	switch c.mode {
	case encoding:
		n := int64(len(*data))
		if p != nil {
			n = p.Len()
		}
		if n < 0 || n > MaxFrameSize {
			c.fail(ErrFrameTooLarge)
			return
		}
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(n))
		c.at = int32(len(c.buf))
		switch {
		case c.ref:
		case p == nil:
			c.buf = append(c.buf, *data...)
		default:
			c.materialize(p)
		}
	case decoding:
		if c.ref {
			c.prefix()
		} else {
			c.Bytes(data)
		}
	case owning:
		*data = detach(*data)
	}
}

// materialize appends p's bytes: the inline path for a payload the frame
// writers do not send by reference. The copy is counted by the callers
// that count copies.
func (c *Codec) materialize(p Payload) {
	n := int(p.Len())
	off := len(c.buf)
	if cap(c.buf)-off < n {
		nb := append(GetBuf(off + n)[:0], c.buf...)
		PutBuf(c.buf)
		c.buf = nb
	}
	c.buf = c.buf[:off+n]
	sw := sliceWriter{buf: c.buf[off:off]}
	if err := p.WriteRange(&sw, 0, int64(n), nil); err != nil {
		c.fail(err)
	} else if len(sw.buf) != n {
		c.fail(io.ErrUnexpectedEOF)
	}
}

// detach copies b out of whatever buffer it aliases. Empty slices pass
// through: they carry no bytes to protect.
func detach(b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	return append([]byte(nil), b...)
}
