package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// pumpWriter hands each Write (one mux segment) to the test over an
// unbuffered channel, so the writer goroutine is blocked until the test
// consumes the segment — deterministic interleaving tests.
type pumpWriter struct {
	segs chan []byte
}

func (w *pumpWriter) Write(p []byte) (int, error) {
	b := make([]byte, len(p))
	copy(b, p)
	w.segs <- b
	return len(p), nil
}

type segInfo struct {
	t      MsgType
	stream uint32
	class  uint8
	more   bool
	plen   int
	total  int // announced total, -1 when the segment carries none
}

func parseSeg(t *testing.T, b []byte) segInfo {
	t.Helper()
	if len(b) < muxHdrSize {
		t.Fatalf("segment shorter than header: %d bytes", len(b))
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if int(n)+4 != len(b) {
		t.Fatalf("segment length field %d does not match %d wire bytes", n, len(b))
	}
	si := segInfo{
		t:      MsgType(binary.LittleEndian.Uint16(b[4:6])),
		stream: binary.LittleEndian.Uint32(b[6:10]),
		class:  b[10],
		more:   b[11]&FlagMore != 0,
		plen:   len(b) - muxHdrSize,
		total:  -1,
	}
	if b[11]&FlagTotal != 0 {
		si.total = int(binary.LittleEndian.Uint32(b[muxHdrSize:]))
		si.plen -= muxTotalSize
	}
	return si
}

// appendSeg hand-builds one mux segment onto b. total >= 0 announces it
// (FlagTotal), as a writer does on the first of several segments.
func appendSeg(b []byte, t MsgType, stream uint32, payload []byte, more bool, total int) []byte {
	var flags uint8
	if more {
		flags |= FlagMore
	}
	n := muxOverhead + len(payload)
	if total >= 0 {
		flags |= FlagTotal
		n += muxTotalSize
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	b = binary.LittleEndian.AppendUint16(b, uint16(t))
	b = binary.LittleEndian.AppendUint32(b, stream)
	b = append(b, ClassBulk, flags)
	if total >= 0 {
		b = binary.LittleEndian.AppendUint32(b, uint32(total))
	}
	return append(b, payload...)
}

// Writing a small frame on an idle writer costs its encoder and muxFrame and nothing
// else: the lanes keep their arrays (popping used to advance them until
// append reallocated) and the encode buffer is pooled.
func TestMuxWriterIdleEnqueueKeepsLanes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	mw := NewMuxWriter(io.Discard, DefaultMuxSegment)
	defer mw.Close()
	enqueue := func() {
		if err := mw.Enqueue(&Ping{Seq: 1}, 1, nil); err != nil {
			t.Fatal(err)
		}
		if err := mw.Enqueue(&ReadReq{Handle: 1, Length: 4 << 10}, 2, nil); err != nil {
			t.Fatal(err)
		}
	}
	enqueue()
	lanes := func() [2]int {
		mw.mu.Lock()
		defer mw.mu.Unlock()
		return [2]int{cap(mw.control), cap(mw.bulk)}
	}
	before := lanes()
	if n := testing.AllocsPerRun(200, enqueue); n != 6 {
		t.Errorf("a control and a bulk frame allocate %.2f times, want 6 (a message, its encoder and a muxFrame each)", n)
	}
	if after := lanes(); after != before || before[0] == 0 || before[1] == 0 {
		t.Errorf("lane capacities went from %v to %v", before, after)
	}
}

// A bulk message larger than one segment must be cut into ≤segment
// sub-frames, and a control frame enqueued mid-transfer must hit the wire
// before the bulk message's remaining segments.
func TestMuxWriterControlPreemptsBulk(t *testing.T) {
	pw := &pumpWriter{segs: make(chan []byte)}
	mw := NewMuxWriter(pw, MinMuxSegment)
	defer func() {
		go func() { // drain anything left so Close can flush
			for range pw.segs {
			}
		}()
		mw.Close()
		close(pw.segs)
	}()

	// The idle fast path writes inline, so the bulk Enqueue blocks on the
	// pump until the test consumes its segments — run it aside.
	data := bytes.Repeat([]byte{0xAB}, 3*MinMuxSegment)
	bulkErr := make(chan error, 1)
	go func() {
		bulkErr <- mw.Enqueue(&ReadResp{Data: data}, 7, nil)
	}()

	first := parseSeg(t, <-pw.segs) // writer now blocked before segment 2
	if first.t != MsgReadResp || first.stream != 7 || first.class != ClassBulk {
		t.Fatalf("first segment = %+v", first)
	}
	if !first.more || first.plen != MinMuxSegment {
		t.Fatalf("first segment not a full-sized non-final cut: %+v", first)
	}
	if want := len(data) + 5; first.total != want { // body + u32 length prefix + EOF byte
		t.Fatalf("first segment announces %d, want %d", first.total, want)
	}

	if err := mw.Enqueue(&Ping{Seq: 99}, 8, nil); err != nil {
		t.Fatalf("enqueue control: %v", err)
	}

	var order []segInfo
	for {
		s := parseSeg(t, <-pw.segs)
		if s.total != -1 {
			t.Fatalf("total announced off the first segment: %+v", s)
		}
		order = append(order, s)
		if s.stream == 7 && !s.more {
			break
		}
	}
	pingAt, lastBulkAt := -1, -1
	for i, s := range order {
		if s.stream == 8 {
			if s.t != MsgPing || s.class != ClassControl || s.more {
				t.Fatalf("control segment = %+v", s)
			}
			pingAt = i
		}
		if s.stream == 7 && !s.more {
			lastBulkAt = i
		}
	}
	if pingAt == -1 {
		t.Fatal("control frame never written")
	}
	if pingAt >= lastBulkAt {
		t.Fatalf("control frame at %d did not preempt final bulk segment at %d (order %+v)", pingAt, lastBulkAt, order)
	}
	if err := <-bulkErr; err != nil {
		t.Fatalf("enqueue bulk: %v", err)
	}
}

// Everything written by MuxWriter must reassemble byte-identically
// through MuxReader, across interleaved streams and classes.
func TestMuxRoundTrip(t *testing.T) {
	pr, pw := io.Pipe()
	mw := NewMuxWriter(pw, MinMuxSegment)
	mr := NewMuxReader(pr)
	defer mr.Close()

	want := map[uint32]Message{
		1: &ReadResp{Data: bytes.Repeat([]byte{1}, 5*MinMuxSegment+13), EOF: true},
		2: &Ping{Seq: 42},
		3: &WriteReq{Handle: 9, Offset: 4096, Data: bytes.Repeat([]byte{3}, MinMuxSegment)},
		4: &ErrorMsg{Code: StatusInternal, Op: "read", Detail: "boom"},
		5: &ReadResp{Data: nil, EOF: true},
	}
	var wg sync.WaitGroup
	for stream, m := range want {
		wg.Add(1)
		go func(stream uint32, m Message) {
			defer wg.Done()
			if err := mw.Enqueue(m, stream, nil); err != nil {
				t.Errorf("enqueue %d: %v", stream, err)
			}
		}(stream, m)
	}

	got := make(map[uint32]Message)
	for range want {
		f, err := mr.Read()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if f.Class != ClassOf(f.Msg.Type()) {
			t.Errorf("stream %d: class %d, want %d", f.Stream, f.Class, ClassOf(f.Msg.Type()))
		}
		Own(f.Msg)
		PutBuf(f.Buf)
		got[f.Stream] = f.Msg
	}
	wg.Wait()
	mw.Close()
	pw.Close()

	for stream, m := range want {
		g, ok := got[stream]
		if !ok {
			t.Fatalf("stream %d never arrived", stream)
		}
		var wantBuf, gotBuf Codec
		m.Fields(&wantBuf)
		g.Fields(&gotBuf)
		if !bytes.Equal(wantBuf.buf, gotBuf.buf) {
			t.Errorf("stream %d: payload mismatch (%d vs %d bytes)", stream, len(gotBuf.buf), len(wantBuf.buf))
		}
	}
}

// MuxReader's bound on announced bytes (maxMuxAnnounced) leans on the
// writer: however many messages are enqueued at once, the wire carries at
// most one half-sent bulk message, and control messages go out whole
// between its segments — never more than two messages begun and unfinished.
func TestMuxWriterHalfSentMessagesBounded(t *testing.T) {
	pw := &pumpWriter{segs: make(chan []byte)}
	mw := NewMuxWriter(pw, MinMuxSegment)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		for j, m := range []Message{
			&ReadResp{Data: make([]byte, (3+i)*MinMuxSegment)},
			&ListResp{Names: []string{strings.Repeat("n", 3*MinMuxSegment)}},
		} {
			wg.Add(1)
			go mw.Enqueue(m, uint32(2*i+j+1), func(error) { wg.Done() })
		}
	}
	written := make(chan struct{})
	go func() {
		wg.Wait()
		close(written)
	}()
	open := make(map[uint32]uint8) // begun and unfinished: stream → class
	for multi := 0; ; {
		select {
		case b := <-pw.segs:
			si := parseSeg(t, b)
			if _, begun := open[si.stream]; !begun && si.more {
				for s, class := range open {
					if class == si.class || class == ClassControl {
						t.Fatalf("stream %d (class %d) begins while stream %d (class %d) is half-sent", si.stream, si.class, s, class)
					}
				}
				open[si.stream] = si.class
				multi++
			}
			if !si.more {
				delete(open, si.stream)
			}
		case <-written:
			if multi != 16 || len(open) != 0 {
				t.Fatalf("%d multi-segment messages seen, %d unfinished; want 16, 0", multi, len(open))
			}
			mw.Close()
			return
		}
	}
}

// A dead connection must fail the in-flight and queued frames exactly
// once each, and fire OnError exactly once.
type failAfterWriter struct {
	n int // successful writes before failing
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("wire gone")
	}
	w.n--
	return len(p), nil
}

func TestMuxWriterFailsPendingOnError(t *testing.T) {
	mw := NewMuxWriter(&failAfterWriter{n: 1}, MinMuxSegment)
	var mu sync.Mutex
	var errs []error
	onErr := 0
	mw.OnError = func(error) { mu.Lock(); onErr++; mu.Unlock() }
	done := func(err error) { mu.Lock(); errs = append(errs, err); mu.Unlock() }

	data := bytes.Repeat([]byte{1}, 4*MinMuxSegment)
	for i := 0; i < 3; i++ {
		mw.Enqueue(&ReadResp{Data: data}, uint32(i+1), done)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(errs)
		mu.Unlock()
		if n == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/3 done callbacks fired", n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, err := range errs {
		if err == nil {
			t.Errorf("done %d: nil error on dead writer", i)
		}
	}
	if onErr != 1 {
		t.Errorf("OnError fired %d times, want 1", onErr)
	}
	if err := mw.Enqueue(&Ping{Seq: 1}, 9, nil); err == nil {
		t.Error("Enqueue after death succeeded")
	}
}

// gatedWriter fails the write after the n-th, which it holds until told.
type gatedWriter struct {
	n       int
	reached chan struct{} // closed when the n-th write arrives
	release chan struct{}
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	switch w.n--; {
	case w.n > 0:
		return len(p), nil
	case w.n == 0:
		close(w.reached)
		<-w.release
		return len(p), nil
	}
	return 0, errors.New("wire gone")
}

// A control frame that fails between two segments of a bulk frame fails
// that frame too: its done fires, although it is neither the frame whose
// write failed nor one still in a lane. A sender that lent the frame its
// memory waits for exactly that.
func TestMuxWriterFailsHalfWrittenBulk(t *testing.T) {
	w := &gatedWriter{n: 2, reached: make(chan struct{}), release: make(chan struct{})}
	mw := NewMuxWriter(w, MinMuxSegment)
	bulk, control := make(chan error, 1), make(chan error, 1)
	go mw.Enqueue(&ReadResp{Data: make([]byte, 8*MinMuxSegment)}, 1, func(err error) { bulk <- err }) //nolint:errcheck // reported to done
	<-w.reached                                                                                       // in the bulk frame's second segment
	mw.Enqueue(&Ping{Seq: 1}, 2, func(err error) { control <- err })                                  //nolint:errcheck // reported to done
	close(w.release)
	for name, done := range map[string]chan error{"control": control, "half-written bulk": bulk} {
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s frame reported written on a dead writer", name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s frame's done never fired", name)
		}
	}
	mw.Close()
}

// Fuzz the envelope itself: any payload, cut into arbitrary segment sizes
// (hand-built frames, not MuxWriter, so cuts smaller than MinMuxSegment
// are covered), must reassemble to the original message.
func TestMuxSegmentationQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(data []byte, seed int64) bool {
		m := &ReadResp{Data: data, EOF: seed&1 == 0}
		var e Codec
		m.Fields(&e)
		payload := e.buf

		// cut into 1..len random segments
		r := rand.New(rand.NewSource(seed))
		var wireBuf bytes.Buffer
		off := 0
		for {
			rem := len(payload) - off
			n := rem
			more := false
			if rem > 1 && r.Intn(2) == 0 {
				n = 1 + r.Intn(rem)
				if n < rem {
					more = true
				}
			}
			total := -1
			if off == 0 && more {
				total = len(payload)
			}
			wireBuf.Write(appendSeg(nil, MsgReadResp, 77, payload[off:off+n], more, total))
			off += n
			if !more {
				break
			}
		}

		mr := NewMuxReader(&wireBuf)
		defer mr.Close()
		fr, err := mr.Read()
		if err != nil {
			t.Logf("read: %v", err)
			return false
		}
		defer PutBuf(fr.Buf)
		got, ok := fr.Msg.(*ReadResp)
		if !ok || fr.Stream != 77 {
			return false
		}
		return bytes.Equal(got.Data, data) && got.EOF == m.EOF
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Interleaved segments of distinct streams must reassemble independently.
func TestMuxReaderInterleavedStreams(t *testing.T) {
	a := bytes.Repeat([]byte{0xA}, 300)
	b := bytes.Repeat([]byte{0xB}, 500)
	var ea, eb Codec
	(&ReadResp{Data: a}).Fields(&ea)
	(&ReadResp{Data: b}).Fields(&eb)

	var wireBuf bytes.Buffer
	wireBuf.Write(appendSeg(nil, MsgReadResp, 1, ea.buf[:100], true, len(ea.buf)))
	wireBuf.Write(appendSeg(nil, MsgReadResp, 2, eb.buf[:200], true, len(eb.buf)))
	wireBuf.Write(appendSeg(nil, MsgReadResp, 1, ea.buf[100:], false, -1))
	wireBuf.Write(appendSeg(nil, MsgReadResp, 2, eb.buf[200:], false, -1))

	mr := NewMuxReader(&wireBuf)
	defer mr.Close()
	for i := 0; i < 2; i++ {
		f, err := mr.Read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		got := f.Msg.(*ReadResp).Data
		want := a
		if f.Stream == 2 {
			want = b
		}
		if !bytes.Equal(got, want) {
			t.Errorf("stream %d: got %d bytes, want %d", f.Stream, len(got), len(want))
		}
		PutBuf(f.Buf)
	}
}

// Garbage bytes must produce an error, never a panic or a hang.
func TestMuxReaderGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(junk []byte) bool {
		mr := NewMuxReader(bytes.NewReader(junk))
		defer mr.Close()
		for {
			_, err := mr.Read()
			if err != nil {
				return true // io errors and protocol errors both fine
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Mid-stream type changes are a protocol violation.
func TestMuxReaderTypeChangeMidStream(t *testing.T) {
	var wireBuf bytes.Buffer
	wireBuf.Write(appendSeg(nil, MsgReadResp, 5, []byte{0}, true, 2))
	wireBuf.Write(appendSeg(nil, MsgWriteResp, 5, []byte{0}, false, -1))
	mr := NewMuxReader(&wireBuf)
	defer mr.Close()
	if _, err := mr.Read(); err == nil {
		t.Fatal("type change mid-stream not rejected")
	}
}

// addrReader records where every Read landed and how many bytes it got.
type addrReader struct {
	r     io.Reader
	dests [][]byte
}

func (a *addrReader) Read(p []byte) (int, error) {
	n, err := a.r.Read(p)
	a.dests = append(a.dests, p[:n])
	return n, err
}

// A 16-segment 4 MiB message is assembled in one buffer taken at the
// announced size, never grown and re-copied: every read longer than the
// reader's small-frame buffer lands in the returned buffer, in place and
// in order, and what came through that buffer — each segment's header and
// the bytes that arrived with it — is less than a small frame per segment.
func TestMuxReaderAssemblesInOneBuffer(t *testing.T) {
	data := make([]byte, 4<<20)
	rand.New(rand.NewSource(3)).Read(data)
	var conn bytes.Buffer
	mw := NewMuxWriter(&conn, DefaultMuxSegment)
	if err := mw.Enqueue(&ReadResp{Data: data}, 9, nil); err != nil {
		t.Fatal(err)
	}
	mw.Close()

	ar := &addrReader{r: &conn}
	mr := NewMuxReader(ar)
	defer mr.Close()
	f, err := mr.Read()
	if err != nil {
		t.Fatal(err)
	}
	defer PutBuf(f.Buf)
	if got := f.Msg.(*ReadResp).Data; !bytes.Equal(got, data) {
		t.Fatal("reassembled message corrupted")
	}
	if cap(f.Buf) != 8<<20 {
		t.Fatalf("assembly buffer has capacity %d, want the announced total's size class (8 MiB)", cap(f.Buf))
	}
	const segments = 16
	at, direct, staged := 0, 0, 0
	for i, d := range ar.dests {
		if len(d) <= muxReadBuf {
			staged += len(d)
			continue
		}
		in := int(uintptr(unsafe.Pointer(&d[0])) - uintptr(unsafe.Pointer(&f.Buf[0])))
		if in < at || in+len(d) > len(f.Buf) {
			t.Fatalf("read %d (%d bytes) landed at %d of the returned buffer after %d, or outside it: a copy moved it", i, len(d), in, at)
		}
		at = in + len(d)
		direct += len(d)
	}
	if staged > segments*muxReadBuf || direct < len(f.Buf)-segments*muxReadBuf {
		t.Fatalf("%d bytes read in place and %d through the read buffer, want at most %d (one small frame a segment) staged",
			direct, staged, segments*muxReadBuf)
	}
}

// A small frame — header, envelope and a 4 KiB body — arrives in one read
// of the connection, and frames sent back to back take no more reads than
// there are frames.
func TestMuxReaderSmallFrameIsOneRead(t *testing.T) {
	msgs := []Message{
		&ReadResp{Data: bytes.Repeat([]byte{5}, 4<<10), EOF: true},
		&WriteReq{Handle: 1, Offset: 2, Data: bytes.Repeat([]byte{6}, 4<<10), Tenant: "a-tenant-of-some-length"},
		&WriteResp{N: 4 << 10},
	}
	var all bytes.Buffer
	for i, m := range msgs {
		var one bytes.Buffer
		mw := NewMuxWriter(io.MultiWriter(&one, &all), DefaultMuxSegment)
		if err := mw.Enqueue(m, uint32(i+1), nil); err != nil {
			t.Fatal(err)
		}
		mw.Close()
		ar := &addrReader{r: &one}
		mr := NewMuxReader(ar)
		f, err := mr.Read()
		if err != nil {
			t.Fatal(err)
		}
		PutBuf(f.Buf)
		mr.Close()
		if len(ar.dests) != 1 {
			t.Errorf("%v: %d-byte frame took %d reads, want 1", m.Type(), len(ar.dests[0]), len(ar.dests))
		}
	}
	ar := &addrReader{r: &all}
	mr := NewMuxReader(ar)
	defer mr.Close()
	for range msgs {
		f, err := mr.Read()
		if err != nil {
			t.Fatal(err)
		}
		PutBuf(f.Buf)
	}
	if len(ar.dests) > len(msgs) {
		t.Errorf("%d small frames back to back took %d reads", len(msgs), len(ar.dests))
	}
}

// segs concatenates hand-built segments of one message type.
type segSpec struct {
	t       MsgType
	stream  uint32
	payload []byte
	more    bool
	total   int // -1: none announced
}

func segs(specs ...segSpec) []byte {
	var b []byte
	for _, s := range specs {
		b = appendSeg(b, s.t, s.stream, s.payload, s.more, s.total)
	}
	return b
}

// Announcements the reader must refuse, each after a well-formed start.
func TestMuxReaderRejectsBadTotals(t *testing.T) {
	p := bytes.Repeat([]byte{7}, 100)
	const rr = MsgReadResp
	cases := map[string][]byte{
		"total too small":          segs(segSpec{rr, 1, p, true, 150}, segSpec{rr, 1, p, false, -1}),
		"total too large":          segs(segSpec{rr, 1, p, true, 250}, segSpec{rr, 1, p, false, -1}),
		"first segment over total": segs(segSpec{rr, 1, p, true, 50}),
		"above MaxFrameSize":       segs(segSpec{rr, 1, p, true, MaxFrameSize + 1}),
		"no total announced":       segs(segSpec{rr, 1, p, true, -1}),
		"total on a lone segment":  segs(segSpec{rr, 1, p, false, 100}),
		"total announced twice":    segs(segSpec{rr, 1, p, true, 300}, segSpec{rr, 1, p, true, 300}),
		"announced sum over the connection's bound": segs(
			segSpec{rr, 1, p, true, MaxFrameSize}, segSpec{rr, 2, p, true, MaxFrameSize}, segSpec{rr, 3, p, true, 101}),
	}
	for name, stream := range cases {
		mr := NewMuxReader(bytes.NewReader(stream))
		if f, err := mr.Read(); err == nil {
			t.Errorf("%s: accepted (%d-byte message)", name, len(f.Buf))
		} else if err == io.EOF || err == io.ErrUnexpectedEOF {
			t.Errorf("%s: ran off the stream (%v) instead of refusing the segment", name, err)
		}
		mr.Close()
	}
}

// FuzzMuxReader feeds arbitrary segment streams to the reassembler. It
// must return an error or messages that arrived whole — a multi-segment
// one exactly as long as its first segment announced — and never panic,
// hang, or commit more memory than the connection's bound allows. Decoded
// a second time with every ReadResp and WriteReq body landed, the stream
// gives the same messages, bodies, EOF flags, addresses and tenants, up to
// where one of them is refused: a landed reader may refuse a bad length
// prefix as soon as it arrives, but never runs out of stream before the
// assembling reader does. Every WriteReq landing is delivered or aborted.
func FuzzMuxReader(f *testing.F) {
	var e Codec
	(&ReadResp{Data: bytes.Repeat([]byte{1}, 300), EOF: true}).Fields(&e)
	b, n := e.buf, len(e.buf)
	const rr = MsgReadResp
	whole := segs(segSpec{rr, 1, b[:100], true, n}, segSpec{rr, 1, b[100:], false, -1})
	f.Add(whole)
	f.Add(segs(segSpec{rr, 2, b, false, -1}))
	f.Add(segs(segSpec{rr, 1, b[:100], true, n - 1}, segSpec{rr, 1, b[100:], false, -1})) // announced too small
	f.Add(segs(segSpec{rr, 1, b[:100], true, n + 1}, segSpec{rr, 1, b[100:], false, -1})) // announced too large
	f.Add(segs(segSpec{rr, 1, b[:100], true, MaxFrameSize + 1}))
	f.Add(segs(segSpec{rr, 1, b[:100], true, n}, segSpec{MsgWriteResp, 1, b[100:], false, -1})) // type change
	f.Add(segs(segSpec{rr, 1, b[:100], true, n}, segSpec{rr, 2, b[:200], true, n},              // interleaved
		segSpec{rr, 1, b[100:], false, -1}, segSpec{rr, 2, b[200:], false, -1}))
	f.Add(append(append([]byte(nil), whole...), whole[:20]...)) // torn tail
	const wr = MsgWriteReq
	w := writeReqPayload(&WriteReq{Handle: 3, Offset: 4096, Data: bytes.Repeat([]byte{2}, 300), Tenant: "tenant"})
	f.Add(segs(segSpec{wr, 1, w[:11], true, len(w)}, segSpec{wr, 1, w[11:], false, -1})) // head split
	f.Add(segs(segSpec{wr, 1, w[:200], true, len(w)}, segSpec{rr, 2, b, false, -1}, segSpec{wr, 1, w[200:], false, -1}))
	f.Add(segs(segSpec{wr, 1, w[:len(w)-3], false, -1}))                                            // torn tenant
	f.Add(segs(segSpec{wr, 1, writeReqPayload(&WriteReq{Data: make([]byte, 40)})[:30], false, -1})) // short body
	f.Fuzz(func(t *testing.T, stream []byte) {
		mr := NewMuxReader(bytes.NewReader(stream))
		defer mr.Close()
		for {
			fr, err := mr.Read()
			if err != nil {
				break
			}
			// Every payload byte was read from the stream, so a message can
			// never be longer than the input that carried it.
			if len(fr.Buf) > len(stream) {
				t.Fatalf("%d-byte message out of a %d-byte stream", len(fr.Buf), len(stream))
			}
			PutBuf(fr.Buf)
		}
		if mr.announced < 0 || mr.announced > maxMuxAnnounced {
			t.Fatalf("announced = %d, outside [0, %d]", mr.announced, maxMuxAnnounced)
		}
		var held int
		for _, a := range mr.asm {
			if len(a.buf) > a.total {
				t.Fatalf("assembling stream holds %d bytes of an announced %d", len(a.buf), a.total)
			}
			held += a.total
		}
		if held != mr.announced {
			t.Fatalf("assembling streams announce %d in total, reader accounts %d", held, mr.announced)
		}

		want, _ := readAllMux(t, stream, false)
		got, err := readAllMux(t, stream, true)
		if len(got) > len(want) || (len(got) < len(want) && (err == io.EOF || err == io.ErrUnexpectedEOF)) {
			t.Fatalf("landed decode gave %d messages (%v), assembled %d", len(got), err, len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.stream != w.stream || g.t != w.t || g.eof != w.eof || !bytes.Equal(g.body, w.body) ||
				g.handle != w.handle || g.off != w.off || g.tenant != w.tenant {
				t.Fatalf("message %d: landed %v on stream %d (%d bytes, eof %v, at %d:%d, tenant %q), "+
					"assembled %v on %d (%d bytes, eof %v, at %d:%d, tenant %q)",
					i, g.t, g.stream, len(g.body), g.eof, g.handle, g.off, g.tenant,
					w.t, w.stream, len(w.body), w.eof, w.handle, w.off, w.tenant)
			}
		}
	})
}

// writeReqPayload encodes a WriteReq's payload.
func writeReqPayload(m *WriteReq) []byte {
	var e Codec
	m.Fields(&e)
	return e.buf
}

// sliceLanding lands a body in buf, discarding what does not fit.
type sliceLanding struct{ buf []byte }

func (l *sliceLanding) Land(r io.Reader, off, n int) (int, error) {
	fit := 0
	if off < len(l.buf) {
		fit = min(n, len(l.buf)-off)
		if _, err := io.ReadFull(r, l.buf[off:off+fit]); err != nil {
			return 0, err
		}
	}
	_, err := io.CopyN(io.Discard, r, int64(n-fit))
	return fit, err
}

// sliceWriteLanding is a sliceLanding granted to a WriteReq body; it
// counts its aborts.
type sliceWriteLanding struct {
	sliceLanding
	aborts int
}

func (l *sliceWriteLanding) Abort() { l.aborts++ }

// decoded is what a MuxReader delivered of one message.
type decoded struct {
	stream uint32
	t      MsgType
	body   []byte // a ReadResp's or WriteReq's body, assembled or landed
	eof    bool
	handle uint64 // a WriteReq's address and tenant
	off    uint64
	tenant string
}

// readAllMux decodes stream up to its first error. With land set, every
// ReadResp and WriteReq body lands in a sliceLanding with room for any body
// the stream can carry. Once the reader is closed, every WriteReq landing
// must have been either delivered or aborted, exactly once.
func readAllMux(t *testing.T, stream []byte, land bool) (out []decoded, err error) {
	mr := NewMuxReader(bytes.NewReader(stream))
	lands := map[uint32]*sliceLanding{}
	var granted []*sliceWriteLanding
	delivered := map[*sliceWriteLanding]bool{}
	defer func() {
		mr.Close()
		for i, l := range granted {
			if want := map[bool]int{false: 1, true: 0}[delivered[l]]; l.aborts != want {
				t.Fatalf("WriteReq landing %d (delivered %v) aborted %d times, want %d", i, delivered[l], l.aborts, want)
			}
		}
	}()
	if land {
		mr.Dest = func(s uint32) Landing {
			lands[s] = &sliceLanding{buf: make([]byte, len(stream))}
			return lands[s]
		}
		mr.WriteDest = func(_, _ uint64, n int) WriteLanding {
			l := &sliceWriteLanding{sliceLanding: sliceLanding{buf: make([]byte, min(n, len(stream)))}}
			granted = append(granted, l)
			return l
		}
	}
	for {
		fr, err := mr.Read()
		if err != nil {
			return out, err
		}
		d := decoded{stream: fr.Stream, t: fr.Msg.Type()}
		switch m := fr.Msg.(type) {
		case *ReadResp:
			d.eof, d.body = m.EOF, bytes.Clone(m.Data)
			if land {
				if m.Data != nil || fr.Buf != nil {
					return out, errors.New("landed ReadResp delivered with a frame buffer")
				}
				d.body = lands[fr.Stream].buf[:m.Landed]
			}
		case *WriteReq:
			d.handle, d.off, d.tenant, d.body = m.Handle, m.Offset, m.Tenant, bytes.Clone(m.Data)
			if land {
				l, ok := m.Lander.(*sliceWriteLanding)
				if !ok || m.Data != nil || fr.Buf != nil {
					return out, errors.New("landed WriteReq delivered without its landing, or with a frame buffer")
				}
				delivered[l] = true
				d.body = l.buf[:m.Landed]
			}
		}
		PutBuf(fr.Buf)
		out = append(out, d)
	}
}

// A ReadResp whose stream has a Landing moves its body from the connection
// into it, several segments or one: the reads longer than the reader's
// small-frame buffer go straight into the landing's memory, and the message
// arrives with Landed set and neither Data nor Buf. Other messages, and a
// ReadResp the Dest hook gives no landing, are assembled as before; the
// stats tell the two kinds of body apart.
func TestMuxReaderLandsReadResp(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	big, small, assembled := make([]byte, 1<<20), make([]byte, 4<<10), make([]byte, 8<<10)
	for _, b := range [][]byte{big, small, assembled} {
		rng.Read(b)
	}
	var conn bytes.Buffer
	mw := NewMuxWriter(&conn, DefaultMuxSegment)
	for _, m := range []struct {
		msg    Message
		stream uint32
	}{
		{&ReadResp{Data: big}, 1}, {&ReadResp{Data: small, EOF: true}, 2},
		{&WriteResp{N: 5}, 3}, {&ReadResp{Data: assembled}, 4},
	} {
		if err := mw.Enqueue(m.msg, m.stream, nil); err != nil {
			t.Fatal(err)
		}
	}
	mw.Close()

	lands := map[uint32]*sliceLanding{1: {buf: make([]byte, len(big))}, 2: {buf: make([]byte, len(small))}}
	var st FrameStats
	ar := &addrReader{r: &conn}
	mr := NewMuxReader(ar)
	defer mr.Close()
	mr.Dest = func(s uint32) Landing {
		if l := lands[s]; l != nil {
			return l
		}
		return nil
	}
	mr.Stats = &st
	for i := 0; i < 4; i++ {
		f, err := mr.Read()
		if err != nil {
			t.Fatal(err)
		}
		rr, _ := f.Msg.(*ReadResp)
		switch f.Stream {
		case 1, 2:
			want := map[uint32][]byte{1: big, 2: small}[f.Stream]
			if rr == nil || rr.Data != nil || f.Buf != nil || rr.Landed != len(want) || rr.EOF != (f.Stream == 2) {
				t.Fatalf("stream %d: landed response delivered as %+v with a %d-byte buffer", f.Stream, f.Msg, len(f.Buf))
			}
			if !bytes.Equal(lands[f.Stream].buf, want) {
				t.Fatalf("stream %d: landed body differs from the one sent", f.Stream)
			}
		case 3:
			if _, ok := f.Msg.(*WriteResp); !ok {
				t.Fatalf("stream 3 delivered %v", f.Msg.Type())
			}
		case 4:
			if rr == nil || !bytes.Equal(rr.Data, assembled) || rr.Landed != 0 {
				t.Fatal("unlanded ReadResp not assembled in its frame buffer")
			}
		}
		PutBuf(f.Buf)
	}
	const segments = 4
	in := lands[1].buf
	direct := 0
	for _, d := range ar.dests {
		at := uintptr(unsafe.Pointer(unsafe.SliceData(d)))
		if lo := uintptr(unsafe.Pointer(&in[0])); len(d) > muxReadBuf && at >= lo && at < lo+uintptr(len(in)) {
			direct += len(d)
		}
	}
	if direct < len(big)-segments*muxReadBuf {
		t.Errorf("%d bytes of the 1 MiB body were read straight into the landing, want all but a small frame a segment", direct)
	}
	if l, c := st.LandedBytes.Load(), st.RecvCopiedBytes.Load(); l != int64(len(big)+len(small)) || c != int64(len(assembled)) {
		t.Errorf("landed_bytes = %d, recv_copied_bytes = %d; want %d and %d", l, c, len(big)+len(small), len(assembled))
	}
}

// A landed ReadResp whose length prefix does not account for its announced
// payload is refused with the error its buffered decode gives, in one
// segment or several, and no byte reaches the landing.
func TestMuxReaderLandingRefusesBadPrefix(t *testing.T) {
	body := bytes.Repeat([]byte{3}, 300)
	var e Codec
	(&ReadResp{Data: body, EOF: true}).Fields(&e)
	for name, c := range map[string]struct {
		prefix int
		want   error
	}{
		"prefix over the payload":  {len(body) + 1, ErrShortPayload},
		"prefix under the payload": {len(body) - 1, ErrTrailingBytes},
	} {
		p := bytes.Clone(e.buf)
		binary.LittleEndian.PutUint32(p, uint32(c.prefix))
		for _, stream := range [][]byte{
			segs(segSpec{MsgReadResp, 1, p, false, -1}),
			segs(segSpec{MsgReadResp, 1, p[:2], true, len(p)}, segSpec{MsgReadResp, 1, p[2:], false, -1}),
		} {
			l := &sliceLanding{buf: make([]byte, 1024)}
			mr := NewMuxReader(bytes.NewReader(stream))
			mr.Dest = func(uint32) Landing { return l }
			if _, err := mr.Read(); !errors.Is(err, c.want) {
				t.Errorf("%s: Read = %v, want %v", name, err, c.want)
			}
			if _, err := decodeFrame(MsgReadResp, p); !errors.Is(err, c.want) {
				t.Errorf("%s: buffered decode = %v, want %v", name, err, c.want)
			}
			if !bytes.Equal(l.buf, make([]byte, len(l.buf))) {
				t.Errorf("%s: refused body reached the landing", name)
			}
			mr.Close()
		}
	}
}

// A WriteReq whose address WriteDest grants a landing moves its body from
// the connection into it, its tenant into a small buffer, and arrives with
// Landed and Lander set and neither Data nor Buf; WriteDest is asked once,
// with the handle, offset and body length, even when the head is cut
// across segments. A request WriteDest declines is assembled as before,
// and the stats tell the two kinds of body apart.
func TestMuxReaderLandsWriteReq(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	big, declined, longTenant := make([]byte, 1<<20), make([]byte, 4<<10), make([]byte, 300<<10)
	for _, b := range [][]byte{big, declined, longTenant} {
		rng.Read(b)
	}
	reqs := map[uint32]*WriteReq{
		1: {Handle: 7, Offset: 1 << 40, Data: big, Tenant: "victim"},
		2: {Handle: 8, Offset: 12, Data: declined},
		3: {Handle: 9, Offset: 4096, Data: longTenant, Tenant: strings.Repeat("t", 100)},
	}
	var conn bytes.Buffer
	mw := NewMuxWriter(&conn, DefaultMuxSegment)
	for s := uint32(1); s <= 3; s++ {
		if err := mw.Enqueue(reqs[s], s, nil); err != nil {
			t.Fatal(err)
		}
	}
	mw.Close()
	// The first request again, its head split across three segments.
	w := writeReqPayload(reqs[1])
	conn.Write(segs(segSpec{MsgWriteReq, 4, w[:3], true, len(w)}, segSpec{MsgWriteReq, 4, w[3:17], true, -1},
		segSpec{MsgWriteReq, 4, w[17:], false, -1}))
	reqs[4] = reqs[1]

	type ask struct {
		handle, off uint64
		n           int
	}
	var asked []ask
	var st FrameStats
	mr := NewMuxReader(&conn)
	defer mr.Close()
	mr.WriteDest = func(handle, off uint64, n int) WriteLanding {
		asked = append(asked, ask{handle, off, n})
		if handle == 8 {
			return nil
		}
		return &sliceWriteLanding{sliceLanding: sliceLanding{buf: make([]byte, n)}}
	}
	mr.Stats = &st
	for i := 0; i < 4; i++ {
		f, err := mr.Read()
		if err != nil {
			t.Fatal(err)
		}
		m, want := f.Msg.(*WriteReq), reqs[f.Stream]
		if m == nil || m.Handle != want.Handle || m.Offset != want.Offset || m.Tenant != want.Tenant {
			t.Fatalf("stream %d: delivered %+v, want the address and tenant of %d:%d %q", f.Stream, f.Msg, want.Handle, want.Offset, want.Tenant)
		}
		if f.Stream == 2 {
			if m.Lander != nil || m.Landed != 0 || !bytes.Equal(m.Data, declined) {
				t.Fatal("declined WriteReq not assembled in its frame buffer")
			}
		} else {
			l, ok := m.Lander.(*sliceWriteLanding)
			if !ok || m.Data != nil || f.Buf != nil || m.Landed != len(want.Data) {
				t.Fatalf("stream %d: landed request delivered as %+v with a %d-byte buffer", f.Stream, m, len(f.Buf))
			}
			if !bytes.Equal(l.buf, want.Data) || l.aborts != 0 {
				t.Fatalf("stream %d: landed body differs from the one sent, or its landing was aborted", f.Stream)
			}
		}
		PutBuf(f.Buf)
	}
	wantAsked := []ask{{7, 1 << 40, len(big)}, {8, 12, len(declined)}, {9, 4096, len(longTenant)}, {7, 1 << 40, len(big)}}
	if len(asked) != len(wantAsked) {
		t.Fatalf("WriteDest asked %v, want %v", asked, wantAsked)
	}
	for i := range asked {
		if asked[i] != wantAsked[i] {
			t.Fatalf("WriteDest asked %v, want %v", asked, wantAsked)
		}
	}
	if l, c := st.LandedBytes.Load(), st.RecvCopiedBytes.Load(); l != int64(2*len(big)+len(longTenant)) || c != int64(len(declined)) {
		t.Errorf("landed_bytes = %d, recv_copied_bytes = %d; want %d and %d", l, c, 2*len(big)+len(longTenant), len(declined))
	}
}

// A granted WriteReq that is never delivered is aborted exactly once: when
// its connection ends mid-body (by Close for a message of several
// segments, at once for a message of one), and when its tenant does not
// decode; the refusal is the buffered decode's. A WriteReq whose body
// length does not fit its payload is never offered to WriteDest.
func TestMuxReaderAbortsWriteLanding(t *testing.T) {
	w := writeReqPayload(&WriteReq{Handle: 1, Offset: 2, Data: bytes.Repeat([]byte{5}, 1000), Tenant: "ab"})
	torn := bytes.Clone(w[:len(w)-1])
	binary.LittleEndian.PutUint32(torn[len(torn)-6:], 1) // a 1-byte tenant, then a stray byte
	long := bytes.Clone(w)
	binary.LittleEndian.PutUint32(long[16:], 5000)
	const wr = MsgWriteReq
	for name, c := range map[string]struct {
		stream []byte
		want   error // nil: any error
		asked  bool
	}{
		"cut mid-body, several segments": {segs(segSpec{wr, 1, w[:500], true, len(w)}), nil, true},
		"cut mid-body, one segment":      {segs(segSpec{wr, 1, w, false, -1})[:600], nil, true},
		"tenant cut short":               {segs(segSpec{wr, 1, w[:len(w)-1], false, -1}), ErrShortPayload, true},
		"tenant with a stray byte":       {segs(segSpec{wr, 1, torn, false, -1}), ErrTrailingBytes, true},
		"body longer than the payload":   {segs(segSpec{wr, 1, long, false, -1}), ErrShortPayload, false},
	} {
		var l *sliceWriteLanding
		mr := NewMuxReader(bytes.NewReader(c.stream))
		mr.WriteDest = func(_, _ uint64, n int) WriteLanding {
			l = &sliceWriteLanding{sliceLanding: sliceLanding{buf: make([]byte, n)}}
			return l
		}
		_, err := mr.Read()
		if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
			t.Errorf("%s: Read = %v, want %v", name, err, c.want)
		}
		if c.want != nil {
			if _, berr := decodeFrame(wr, c.stream[muxHdrSize:]); !errors.Is(berr, c.want) {
				t.Errorf("%s: buffered decode = %v, want %v", name, berr, c.want)
			}
		}
		mr.Close()
		mr.Close()
		switch {
		case (l != nil) != c.asked:
			t.Errorf("%s: WriteDest asked: %v, want %v", name, l != nil, c.asked)
		case l != nil && l.aborts != 1:
			t.Errorf("%s: landing aborted %d times, want once", name, l.aborts)
		}
	}
}
