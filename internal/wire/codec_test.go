package wire

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

// primitives is a field list of every Codec primitive.
type primitives struct {
	u8   uint8
	t, f bool
	u16  uint16
	u32  uint32
	u64  uint64
	i64  int64
	f64  float64
	s    string
	b    []byte
	u32s []uint32
	ss   []string
}

func (p *primitives) Fields(c *Codec) {
	c.U8(&p.u8)
	c.Bool(&p.t)
	c.Bool(&p.f)
	c.U16(&p.u16)
	c.U32(&p.u32)
	c.U64(&p.u64)
	c.I64(&p.i64)
	c.F64(&p.f64)
	c.String(&p.s)
	c.Bytes(&p.b)
	c.U32s(&p.u32s)
	c.Strings(&p.ss)
}

func TestEncoderDecoderRoundTrip(t *testing.T) {
	in := primitives{u8: 0xAB, t: true, u16: 0xBEEF, u32: 0xDEADBEEF, u64: 0x0102030405060708,
		i64: -42, f64: 3.14159, s: "hello, 世界", b: []byte{1, 2, 3},
		u32s: []uint32{7, 8, 9}, ss: []string{"a", "", "c"}}
	var e Codec
	in.Fields(&e)
	if err := e.Err(); err != nil {
		t.Fatalf("encode: %v", err)
	}

	d := NewDecoder(e.Buf())
	var out primitives
	out.Fields(d)
	if err := d.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.u8 != 0xAB || !out.t || out.f || out.u16 != 0xBEEF || out.u32 != 0xDEADBEEF ||
		out.u64 != 0x0102030405060708 || out.i64 != -42 || out.f64 != 3.14159 {
		t.Errorf("fixed-width fields = %+v", out)
	}
	if out.s != "hello, 世界" {
		t.Errorf("String = %q", out.s)
	}
	if !bytes.Equal(out.b, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", out.b)
	}
	if len(out.u32s) != 3 || out.u32s[0] != 7 || out.u32s[2] != 9 {
		t.Errorf("U32s = %v", out.u32s)
	}
	if len(out.ss) != 3 || out.ss[0] != "a" || out.ss[1] != "" || out.ss[2] != "c" {
		t.Errorf("Strings = %v", out.ss)
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", d.Remaining())
	}

	// Owning detaches the byte field and touches nothing else.
	alias := out.b
	out.Fields(&owner)
	alias[0] = 0xFF
	if out.b[0] != 1 || out.u64 != 0x0102030405060708 {
		t.Errorf("after owning: %+v", out)
	}
}

// Property: every (u64, i64, f64, string, bytes) tuple survives a
// round trip through the codec.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(a uint64, b int64, c float64, s string, raw []byte) bool {
		if len(s) > MaxStringLen {
			s = s[:MaxStringLen]
		}
		var e Codec
		e.U64(&a)
		e.I64(&b)
		e.F64(&c)
		e.String(&s)
		e.Bytes(&raw)
		if e.Err() != nil {
			return false
		}
		d := NewDecoder(e.Buf())
		var (
			ga   uint64
			gb   int64
			gc   float64
			gs   string
			graw []byte
		)
		d.U64(&ga)
		d.I64(&gb)
		d.F64(&gc)
		d.String(&gs)
		d.Bytes(&graw)
		if d.Err() != nil || d.Remaining() != 0 {
			return false
		}
		sameF := gc == c || (math.IsNaN(gc) && math.IsNaN(c))
		return ga == a && gb == b && sameF && gs == s && bytes.Equal(graw, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderUnderflowIsSticky(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	var u32 uint32
	d.U32(&u32)
	if d.Err() != ErrShortPayload {
		t.Fatalf("err = %v, want ErrShortPayload", d.Err())
	}
	// Every subsequent read must leave its field zero, not panic.
	var (
		u64 uint64
		s   string
		b   []byte
	)
	d.U64(&u64)
	d.String(&s)
	d.Bytes(&b)
	if u64 != 0 || s != "" || b != nil {
		t.Error("reads after error returned non-zero values")
	}
}

func TestDecoderRejectsOversizedCollections(t *testing.T) {
	// A length prefix claiming more elements, or bytes, than the payload
	// can hold must fail before allocating — also a prefix of 2^31 or
	// more, which a signed conversion on a 32-bit int turns negative.
	for _, n := range []uint32{1 << 30, 1 << 31, 1<<32 - 1} {
		var e Codec
		e.U32(&n)
		e.U32(&n) // a few bytes for the prefix to overrun

		d := NewDecoder(e.Buf())
		var vs []uint32
		if d.U32s(&vs); vs != nil || d.Err() == nil {
			t.Errorf("%#x: U32s = %v, %v; want nil and an error", n, vs, d.Err())
		}
		d = NewDecoder(e.Buf())
		var ss []string
		if d.Strings(&ss); ss != nil || d.Err() == nil {
			t.Errorf("%#x: Strings = %v, %v; want nil and an error", n, ss, d.Err())
		}
		d = NewDecoder(e.Buf())
		var b []byte
		if d.Bytes(&b); b != nil || d.Err() == nil {
			t.Errorf("%#x: Bytes = %v, %v; want nil and an error", n, b, d.Err())
		}
		d = NewDecoder(e.Buf())
		var s string
		if d.String(&s); s != "" || d.Err() == nil {
			t.Errorf("%#x: String = %q, %v; want empty and an error", n, s, d.Err())
		}
	}
}

func TestStringLengthLimit(t *testing.T) {
	var e Codec
	s := string(make([]byte, MaxStringLen+1))
	e.String(&s)
	if e.Err() == nil {
		t.Fatal("expected error encoding oversized string")
	}
}
