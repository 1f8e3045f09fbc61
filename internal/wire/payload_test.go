package wire

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// tempPayloadFile writes data to a file and returns it opened for read.
func tempPayloadFile(t *testing.T, data []byte) *os.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "payload.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestPayloadFrameByteIdentity pins the by-reference contract: a ReadResp
// carrying a file-backed Payload must put the exact same bytes on the wire
// as the same response carrying the data inline — for both the classic
// ordered framing and the mux framing. Receivers never learn which path
// the sender took.
func TestPayloadFrameByteIdentity(t *testing.T) {
	sizes := []int{1, 100, vectoredMin - 1, vectoredMin, vectoredMin + 1, 200_000}
	for _, n := range sizes {
		data := make([]byte, n)
		rng := rand.New(rand.NewSource(int64(n)))
		rng.Read(data)
		f := tempPayloadFile(t, data)

		inline := &ReadResp{Data: data, EOF: true}
		byref := &ReadResp{
			Payload: NewFilePayload([]FileSection{{F: f, Off: 0, N: int64(n)}}, nil),
			EOF:     true,
		}

		// Ordered framing.
		var want, got bytes.Buffer
		if err := WriteMessageOpts(&want, inline, WriteOptions{Plain: true}); err != nil {
			t.Fatal(err)
		}
		var st FrameStats
		if err := WriteMessageOpts(&got, byref, WriteOptions{Stats: &st}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("n=%d: ordered by-ref frame differs from inline (%d vs %d bytes)",
				n, got.Len(), want.Len())
		}
		// A buffer is not a TCP conn, so the bytes staged through the
		// copy fallback; they must still be accounted.
		if st.CopiedBytes.Load() != int64(n) {
			t.Errorf("n=%d: copied_bytes = %d, want %d", n, st.CopiedBytes.Load(), n)
		}

		// Decode round trip.
		m, err := ReadMessage(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		rr, ok := m.(*ReadResp)
		if !ok || !bytes.Equal(rr.Data, data) || !rr.EOF {
			t.Fatalf("n=%d: by-ref frame decoded wrong", n)
		}
		byref.Payload.Close()
	}
}

// TestPayloadMuxByteIdentity checks the mux framing: a payload-bearing
// ReadResp segments into the same sub-frame stream as the inline encoding.
func TestPayloadMuxByteIdentity(t *testing.T) {
	for _, n := range []int{1, MinMuxSegment - muxOverhead, MinMuxSegment, 3*MinMuxSegment + 17, 300_000} {
		data := make([]byte, n)
		rng := rand.New(rand.NewSource(int64(n)))
		rng.Read(data)
		f := tempPayloadFile(t, data)

		var want, got bytes.Buffer
		mwInline := NewMuxWriter(&want, MinMuxSegment)
		mwInline.Plain = true
		if err := mwInline.Enqueue(&ReadResp{Data: data, EOF: true}, 7, nil); err != nil {
			t.Fatal(err)
		}
		mwInline.Close()

		var st FrameStats
		mwRef := NewMuxWriter(&got, MinMuxSegment)
		mwRef.Stats = &st
		p := NewFilePayload([]FileSection{{F: f, Off: 0, N: int64(n)}}, nil)
		var wg sync.WaitGroup
		wg.Add(1)
		if err := mwRef.Enqueue(&ReadResp{Payload: p, EOF: true}, 7, func(error) { wg.Done() }); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		mwRef.Close()
		p.Close()

		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("n=%d: mux by-ref stream differs from inline (%d vs %d bytes)",
				n, got.Len(), want.Len())
		}

		// And it reads back as one message.
		mr := NewMuxReader(io.NopCloser(bytes.NewReader(got.Bytes())))
		fr, err := mr.Read()
		if err != nil {
			t.Fatal(err)
		}
		rr, ok := fr.Msg.(*ReadResp)
		if !ok || !bytes.Equal(rr.Data, data) {
			t.Fatalf("n=%d: mux by-ref decode wrong", n)
		}
		PutBuf(fr.Buf)
		mr.Close()
	}
}

// TestFilePayloadZeroFill: sections with a nil file read as zeros, and a
// payload whose backing file shrank after ReadRange keeps its announced
// length by zero-filling the missing tail (the frame header has already
// promised those bytes).
func TestFilePayloadZeroFill(t *testing.T) {
	data := bytes.Repeat([]byte{0xAB}, 1000)
	f := tempPayloadFile(t, data)

	p := NewFilePayload([]FileSection{
		{F: f, Off: 0, N: 500},
		{N: 300}, // hole
		{F: f, Off: 500, N: 500},
	}, nil)
	if p.Len() != 1300 {
		t.Fatalf("len = %d", p.Len())
	}
	var buf bytes.Buffer
	if err := p.WriteRange(&buf, 0, 1300, nil); err != nil {
		t.Fatal(err)
	}
	want := append(append(append([]byte{}, data[:500]...), make([]byte, 300)...), data[500:]...)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("hole section did not read as zeros")
	}
	p.Close()

	// Shrink the backing file under a live payload.
	p2 := NewFilePayload([]FileSection{{F: f, Off: 0, N: 1000}}, nil)
	if err := os.Truncate(f.Name(), 400); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := p2.WriteRange(&buf, 0, 1000, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if len(out) != 1000 {
		t.Fatalf("shrunk payload wrote %d bytes, want 1000", len(out))
	}
	if !bytes.Equal(out[:400], data[:400]) {
		t.Fatal("surviving prefix corrupted")
	}
	if !bytes.Equal(out[400:], make([]byte, 600)) {
		t.Fatal("missing tail not zero-filled")
	}
	p2.Close()
}

// TestFilePayloadSubRange exercises WriteRange offsets that straddle
// section boundaries, as mux segmentation produces.
func TestFilePayloadSubRange(t *testing.T) {
	data := make([]byte, 2048)
	rand.New(rand.NewSource(7)).Read(data)
	f := tempPayloadFile(t, data)
	full := append(append(append([]byte{}, data[:1000]...), make([]byte, 500)...), data[1000:]...)

	p := NewFilePayload([]FileSection{
		{F: f, Off: 0, N: 1000},
		{N: 500},
		{F: f, Off: 1000, N: 1048},
	}, nil)
	defer p.Close()
	for _, r := range [][2]int64{{0, 1}, {999, 2}, {900, 700}, {1400, 200}, {0, 2548}, {2547, 1}} {
		var buf bytes.Buffer
		if err := p.WriteRange(&buf, r[0], r[1], nil); err != nil {
			t.Fatalf("range %v: %v", r, err)
		}
		if !bytes.Equal(buf.Bytes(), full[r[0]:r[0]+r[1]]) {
			t.Fatalf("range %v: content mismatch", r)
		}
	}
}

// TestWritevStats: memory-backed bulk data at or above vectoredMin goes
// out through net.Buffers and counts a vectored write; smaller frames and
// Plain mode stay on the contiguous path.
func TestWritevStats(t *testing.T) {
	big := &ReadResp{Data: make([]byte, vectoredMin)}
	small := &ReadResp{Data: make([]byte, 16)}

	var st FrameStats
	var buf bytes.Buffer
	if err := WriteMessageOpts(&buf, big, WriteOptions{Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.WritevCalls.Load() != 1 {
		t.Errorf("writev_calls = %d after big frame, want 1", st.WritevCalls.Load())
	}
	if err := WriteMessageOpts(&buf, small, WriteOptions{Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.WritevCalls.Load() != 1 {
		t.Errorf("writev_calls = %d after small frame, want still 1", st.WritevCalls.Load())
	}
	if st.CopiedBytes.Load() != 16 {
		t.Errorf("copied_bytes = %d, want 16 (small inline frame only)", st.CopiedBytes.Load())
	}

	var plain bytes.Buffer
	stBefore := st.WritevCalls.Load()
	if err := WriteMessageOpts(&plain, big, WriteOptions{Stats: &st, Plain: true}); err != nil {
		t.Fatal(err)
	}
	if st.WritevCalls.Load() != stBefore {
		t.Error("Plain mode still used the vectored path")
	}
}

// TestPutPayloadMaterialize: a Body encoded inline from a Payload embeds
// its bytes exactly like a Body from Data would.
func TestPutPayloadMaterialize(t *testing.T) {
	data := []byte("some payload bytes for the slow path")
	f := tempPayloadFile(t, data)
	p := NewFilePayload([]FileSection{{F: f, Off: 0, N: int64(len(data))}}, nil)
	defer p.Close()

	var a, b Codec
	var none []byte
	a.Body(&data, nil)
	b.Body(&none, p)
	if b.err != nil {
		t.Fatal(b.err)
	}
	if !bytes.Equal(a.buf, b.buf) {
		t.Fatalf("Body bytes from a Payload differ from those from Data:\n%x\n%x", a.buf, b.buf)
	}
}
