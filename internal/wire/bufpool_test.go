package wire

import (
	"bytes"
	"reflect"
	"testing"
)

func TestBufClassBounds(t *testing.T) {
	cases := []struct {
		n, class int
	}{
		{1, minBufClass},
		{64, minBufClass},
		{65, 7},
		{128, 7},
		{129, 8},
		{1 << 20, 20},
		{1<<20 + 1, 21},
		{MaxFrameSize, maxBufClass},
	}
	for _, tc := range cases {
		if got := bufClass(tc.n); got != tc.class {
			t.Errorf("bufClass(%d) = %d, want %d", tc.n, got, tc.class)
		}
	}
}

func TestGetBufLengthAndCapacity(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 4096, 1 << 20, 3<<20 + 17} {
		b := GetBuf(n)
		if len(b) != n {
			t.Fatalf("GetBuf(%d): len = %d", n, len(b))
		}
		if cap(b) < n {
			t.Fatalf("GetBuf(%d): cap = %d", n, cap(b))
		}
		PutBuf(b)
	}
	// Above the largest class: still served, just unpooled.
	huge := GetBuf(MaxFrameSize + 1)
	if len(huge) != MaxFrameSize+1 {
		t.Fatalf("oversized GetBuf: len = %d", len(huge))
	}
	PutBuf(huge) // must be a safe no-op
}

func TestPutBufRecyclesAcrossGet(t *testing.T) {
	// sync.Pool gives no cross-goroutine guarantees, but a put followed by
	// a get of the same class on one goroutine with no GC in between
	// reuses the buffer in practice — which is exactly the reuse the
	// aliasing rules exist for. Marking the buffer and observing the mark
	// again proves the recycling path works end to end.
	b := GetBuf(1000)
	b[0] = 0xAB
	PutBuf(b)
	c := GetBuf(900) // same 1024-byte class
	if cap(c) != cap(b) || &c[0] != &b[0] {
		t.Skip("pool did not hand the buffer back (GC ran); nothing to assert")
	}
	if c[0] != 0xAB {
		t.Fatal("recycled buffer lost its bytes")
	}
}

func TestPutBufFilesGrownBufferUnderFloorClass(t *testing.T) {
	// A buffer grown by append can have a capacity that is not a power of
	// two. It must be filed under the class it can still fully serve.
	b := make([]byte, 0, 3000) // floor class 11 (2048)
	PutBuf(b)
	got := GetBuf(2048)
	if cap(got) < 2048 {
		t.Fatalf("class-11 buffer has cap %d", cap(got))
	}
	// Too small to pool at all: dropped, never handed back shorter than
	// requested.
	PutBuf(make([]byte, 10))
	small := GetBuf(64)
	if len(small) != 64 {
		t.Fatalf("GetBuf(64): len = %d", len(small))
	}
}

// frameBytes encodes m and returns the raw frame.
func frameBytes(t *testing.T, m Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Aliasing contract, negative side: a message decoded by a FrameReader
// sees its byte fields change when the next same-size frame is read,
// because both decode into the same pooled buffer.
func TestFrameReaderMessagesAliasWithoutOwn(t *testing.T) {
	first := &ReadResp{Data: bytes.Repeat([]byte{0x11}, 256)}
	second := &ReadResp{Data: bytes.Repeat([]byte{0x22}, 256)}
	stream := append(frameBytes(t, first), frameBytes(t, second)...)

	fr := NewFrameReader(bytes.NewReader(stream))
	defer fr.Close()
	m1, err := fr.Read()
	if err != nil {
		t.Fatal(err)
	}
	got := m1.(*ReadResp).Data
	if !bytes.Equal(got, first.Data) {
		t.Fatal("first decode wrong")
	}
	if _, err := fr.Read(); err != nil {
		t.Fatal(err)
	}
	// Same-size frames share the reader's buffer, so the retained slice
	// now shows the second frame's bytes. This test documents the hazard
	// Own exists to solve; if buffering strategy changes and this stops
	// aliasing, the test (and the contract) should be revisited together.
	if !bytes.Equal(got, second.Data) {
		t.Fatal("expected un-Owned message to alias the reader buffer")
	}
}

// Aliasing contract, positive side: Own detaches the message, so it
// survives any number of subsequent reads on the same reader.
func TestOwnDetachesMessageFromFrameReader(t *testing.T) {
	first := &ReadResp{Data: bytes.Repeat([]byte{0x33}, 256), EOF: true}
	second := &ReadResp{Data: bytes.Repeat([]byte{0x44}, 256)}
	stream := append(frameBytes(t, first), frameBytes(t, second)...)

	fr := NewFrameReader(bytes.NewReader(stream))
	defer fr.Close()
	m1, err := fr.Read()
	if err != nil {
		t.Fatal(err)
	}
	owned := Own(m1).(*ReadResp)
	if _, err := fr.Read(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(owned.Data, first.Data) || !owned.EOF {
		t.Fatal("Owned message did not survive the next frame read")
	}
}

// Own must protect every aliasing field: every []byte field of every
// live message type is set, decoded from a pooled frame buffer, Owned,
// and must survive the buffer being clobbered.
func TestOwnCoversAllAliasingFields(t *testing.T) {
	var msgs []Message
	for mt := MsgType(1); mt < msgSentinel; mt++ {
		if !mt.Valid() {
			continue
		}
		m := New(mt)
		v := reflect.ValueOf(m).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Type() == reflect.TypeOf([]byte(nil)) {
				f.SetBytes([]byte(mt.String() + "." + v.Type().Field(i).Name))
			}
		}
		msgs = append(msgs, m)
	}
	for _, m := range msgs {
		raw := frameBytes(t, m)
		fr := NewFrameReader(bytes.NewReader(raw))
		decoded, err := fr.Read()
		if err != nil {
			t.Fatalf("%v: %v", m.Type(), err)
		}
		Own(decoded)
		// Clobber the reader's buffer wholesale; an Owned message must not
		// notice.
		for i := range fr.buf[:cap(fr.buf)] {
			fr.buf[:cap(fr.buf)][i] = 0xFF
		}
		var before, after bytes.Buffer
		if err := WriteMessage(&before, m); err != nil {
			t.Fatal(err)
		}
		if err := WriteMessage(&after, decoded); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Errorf("%v: Owned message changed when the frame buffer was clobbered", m.Type())
		}
		fr.Close()
	}
}

// WriteMessage recycles its encode buffer before returning, so a writer
// that stashes the slice (violating the io.Writer contract) would observe
// reuse. The transport layer therefore always copies; this test pins the
// invariant that the frame handed to Write is complete and correct at the
// moment of the call.
func TestWriteMessagePooledFrameIsCorrect(t *testing.T) {
	msg := &WriteReq{Handle: 7, Offset: 13, Data: bytes.Repeat([]byte{0x5A}, 1<<10)}
	for i := 0; i < 8; i++ { // repeated writes reuse pooled buffers
		var buf bytes.Buffer
		if err := WriteMessage(&buf, msg); err != nil {
			t.Fatal(err)
		}
		m, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		wr := m.(*WriteReq)
		if wr.Handle != 7 || wr.Offset != 13 || !bytes.Equal(wr.Data, msg.Data) {
			t.Fatalf("round %d: frame decoded wrong", i)
		}
	}
}

// The pool itself does not allocate: a GetBuf/PutBuf cycle recycles the
// header box along with the buffer.
func TestBufPoolCycleDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	PutBuf(GetBuf(4 << 10)) // fill the class and the box pool
	if n := testing.AllocsPerRun(200, func() { PutBuf(GetBuf(4 << 10)) }); n != 0 {
		t.Fatalf("GetBuf/PutBuf cycle allocates %.1f times, want 0", n)
	}
}
