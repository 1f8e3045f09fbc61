package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"sync"
	"testing"
)

// roundTrip writes m through the framing layer and reads it back.
func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatalf("WriteMessage(%v): %v", m.Type(), err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatalf("ReadMessage(%v): %v", m.Type(), err)
	}
	return got
}

func TestAllMessagesRoundTrip(t *testing.T) {
	layout := Layout{StripeSize: 4096, Servers: []uint32{2, 0, 1}}
	msgs := []Message{
		&ErrorMsg{Code: StatusNotFound, Op: "open", Detail: "no such file"},
		&Ping{Seq: 7},
		&Pong{Seq: 7},
		&CreateReq{Name: "a/b", StripeSize: 1 << 16, Width: 4},
		&CreateReq{Name: "placed", StripeSize: 1 << 16, Placement: []uint32{2, 0}},
		&CreateResp{Handle: 9, Layout: layout},
		&OpenReq{Name: "a/b"},
		&OpenResp{Handle: 9, Size: 1 << 30, Layout: layout},
		&StatReq{Name: "a/b"},
		&StatResp{Handle: 9, Size: 12345, ModUnixN: -99, Layout: layout},
		&RemoveReq{Name: "x"},
		&RemoveResp{Handle: 3},
		&RemoveResp{Handle: 3, Layout: layout, Size: 1 << 40},
		&ListReq{Prefix: "data/"},
		&ListResp{Names: []string{"data/a", "data/b"}},
		&SetSizeReq{Handle: 4, Size: 77},
		&SetSizeResp{Size: 77},
		&ReadReq{Handle: 1, Offset: 8192, Length: 4096},
		&ReadReq{Handle: 1, Offset: 8192, Length: 4096, Tenant: "app-a"},
		&ReadResp{Data: []byte{9, 9, 9}, EOF: true},
		&WriteReq{Handle: 1, Offset: 0, Data: []byte("payload")},
		&WriteReq{Handle: 1, Offset: 0, Data: []byte("payload"), Tenant: "app-a"},
		&WriteResp{N: 7},
		&TruncReq{Handle: 5, Size: 10, Remove: true},
		&TruncReq{Handle: 5, Size: 10, Remove: true, Tenant: "app-a"},
		&TruncResp{},
		&ActiveReadReq{RequestID: 11, Handle: 2, Offset: 64, Length: 1 << 20,
			Op: "sum8", Params: []byte{1}, ResumeState: []byte{2, 3}, TraceID: 0xCAFE0001},
		&ActiveReadReq{RequestID: 11, Handle: 2, Offset: 64, Length: 1 << 20,
			Op: "sum8", Params: []byte{1}, ResumeState: []byte{2, 3}, TraceID: 0xCAFE0001,
			Tenant: "app-a"},
		&ActiveReadResp{RequestID: 11, Disposition: ActiveInterrupted,
			Result: []byte{4}, State: []byte{5, 6}, Processed: 512, TraceID: 0xCAFE0001},
		&ProbeReq{},
		&ProbeResp{QueueLen: 3, ActiveQueueLen: 2, BusyCores: 1.5, TotalCores: 2,
			MemUsed: 100, MemTotal: 1000, BytesQueued: 4096},
		&CancelReq{RequestID: 11, TraceID: 0xCAFE0001},
		&CancelResp{Found: true},
		&TransformReq{RequestID: 12, SrcHandle: 2, Offset: 64, Length: 1 << 20,
			Op: "gaussian2d", Params: []byte{7}, DstHandle: 3, DstOffset: 64, TraceID: 0xCAFE0002},
		&TransformReq{RequestID: 12, SrcHandle: 2, Offset: 64, Length: 1 << 20,
			Op: "gaussian2d", Params: []byte{7}, DstHandle: 3, DstOffset: 64, TraceID: 0xCAFE0002,
			Tenant: "app-a"},
		&TransformResp{RequestID: 12, Written: 1 << 20},
		&LocalSizeReq{Handle: 9},
		&LocalSizeResp{Size: 1 << 30},
		&HelloReq{MaxVersion: MuxVersion, MaxSegment: DefaultMuxSegment},
		&HelloResp{Version: MuxVersion, MaxSegment: 64 << 10},
		&IntrospectReq{Kind: "series", Params: []byte(`{"window_nano":2000000000}`)},
		&IntrospectReq{Kind: "health"},
		&IntrospectResp{Node: "data-0",
			Body: []byte(`{"series":[{"name":"queue.depth","points":[{"t":1,"v":2}]}],"tick_nano":100000000}`)},
	}
	seen := make(map[MsgType]bool)
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(normalise(got), normalise(m)) {
			t.Errorf("%v: round trip mismatch:\n got %#v\nwant %#v", m.Type(), got, m)
		}
		seen[m.Type()] = true
	}
	// Every registered message type must be covered above, so new
	// messages cannot ship without a round-trip test.
	for tt := MsgType(1); tt < msgSentinel; tt++ {
		if tt.Valid() && !seen[tt] {
			t.Errorf("message type %v has no round-trip coverage", tt)
		}
	}
}

// Frames written by peers that predate a trailing optional field must
// still decode, with that field defaulting to zero. Each such field is
// always the final 8 encoded bytes of its message, so an old-format frame
// is the new-format frame truncated by 8 with its length prefix reduced
// to match.
func TestOldFormatFramesDecode(t *testing.T) {
	cases := []struct {
		m     Message
		field string // the trailing optional field old peers omit
	}{
		{&ActiveReadReq{RequestID: 11, Handle: 2, Offset: 64, Length: 1 << 20,
			Op: "sum8", Params: []byte{1}, ResumeState: []byte{2, 3}, TraceID: 0xCAFE}, "TraceID"},
		{&ActiveReadResp{RequestID: 11, Disposition: ActiveDone,
			Result: []byte{4}, Processed: 512, TraceID: 0xCAFE}, "TraceID"},
		{&CancelReq{RequestID: 11, TraceID: 0xCAFE}, "TraceID"},
		{&TransformReq{RequestID: 12, SrcHandle: 2, Offset: 64, Length: 1 << 20,
			Op: "gaussian2d", Params: []byte{7}, DstHandle: 3, DstOffset: 64, TraceID: 0xCAFE}, "TraceID"},
	}
	for _, tc := range cases {
		m := tc.m
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("WriteMessage(%v): %v", m.Type(), err)
		}
		raw := buf.Bytes()
		old := append([]byte(nil), raw[:len(raw)-8]...)
		binary.LittleEndian.PutUint32(old[0:4], uint32(len(old)-4))
		got, err := ReadMessage(bytes.NewReader(old))
		if err != nil {
			t.Fatalf("%v: old-format frame rejected: %v", m.Type(), err)
		}
		// Old peers never sent the trailing field, so decode yields zero.
		f := reflect.ValueOf(m).Elem().FieldByName(tc.field)
		f.Set(reflect.Zero(f.Type()))
		if !reflect.DeepEqual(normalise(got), normalise(m)) {
			t.Errorf("%v: old-format decode mismatch:\n got %#v\nwant %#v", m.Type(), got, m)
		}
	}
}

// normalise maps nil and empty slices to a canonical form so DeepEqual
// compares semantic content (the codec does not distinguish them).
func normalise(m Message) Message {
	v := reflect.ValueOf(m).Elem()
	normaliseValue(v)
	return m
}

func normaliseValue(v reflect.Value) {
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() == 0 && !v.IsNil() {
			v.Set(reflect.Zero(v.Type()))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			normaliseValue(v.Field(i))
		}
	}
}

func TestReadMessageRejectsHugeFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0})
	if _, err := ReadMessage(&buf); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadMessageRejectsUnknownType(t *testing.T) {
	var buf bytes.Buffer
	// length=2 (type only), type=9999
	buf.Write([]byte{2, 0, 0, 0, 0x0F, 0x27})
	_, err := ReadMessage(&buf)
	if err == nil {
		t.Fatal("expected error for unknown message type")
	}
}

func TestReadMessageTruncatedPayload(t *testing.T) {
	var full bytes.Buffer
	if err := WriteMessage(&full, &OpenReq{Name: "abcdef"}); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	if _, err := ReadMessage(bytes.NewReader(raw[:len(raw)-2])); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestReadMessageTrailingBytes(t *testing.T) {
	// Hand-build a Ping frame with 2 extra payload bytes.
	e := Codec{buf: make([]byte, 6)}
	seq, garbage := uint64(1), uint16(0xABCD)
	e.U64(&seq)
	e.U16(&garbage) // trailing garbage
	raw := e.Buf()
	raw[0] = byte(len(raw) - 4)
	raw[4] = byte(MsgPing)
	if _, err := ReadMessage(bytes.NewReader(raw)); err != ErrTrailingBytes {
		t.Fatalf("err = %v, want ErrTrailingBytes", err)
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgOpenReq.String() != "open.req" {
		t.Errorf("MsgOpenReq.String() = %q", MsgOpenReq.String())
	}
	if MsgType(9999).String() == "" {
		t.Error("unknown type should still render")
	}
	if MsgInvalid.Valid() || !MsgPing.Valid() || msgSentinel.Valid() {
		t.Error("Valid() boundaries wrong")
	}
}

// TestMsgTypeCodesAreStable pins the code table: every live message type
// keeps the number written here, and every retired code stays retired — a
// frame carrying one is an unknown type.
func TestMsgTypeCodesAreStable(t *testing.T) {
	live := map[MsgType]uint16{
		MsgError: 1, MsgPing: 2, MsgPong: 3,
		MsgCreateReq: 4, MsgCreateResp: 5, MsgOpenReq: 6, MsgOpenResp: 7,
		MsgStatReq: 8, MsgStatResp: 9, MsgRemoveReq: 10, MsgRemoveResp: 11,
		MsgListReq: 12, MsgListResp: 13, MsgSetSizeReq: 14, MsgSetSizeResp: 15,
		MsgReadReq: 16, MsgReadResp: 17, MsgWriteReq: 18, MsgWriteResp: 19,
		MsgTruncReq: 20, MsgTruncResp: 21,
		MsgActiveReadReq: 22, MsgActiveReadResp: 23, MsgProbeReq: 24, MsgProbeResp: 25,
		MsgCancelReq: 26, MsgCancelResp: 27, MsgTransformReq: 28, MsgTransformResp: 29,
		MsgLocalSizeReq: 30, MsgLocalSizeResp: 31,
		MsgHelloReq: 42, MsgHelloResp: 43,
		MsgIntrospectReq: 52, MsgIntrospectResp: 53,
	}
	for mt, code := range live {
		if uint16(mt) != code {
			t.Errorf("%v = %d, want %d", mt, uint16(mt), code)
		}
		if m := New(mt); m == nil || m.Type() != mt {
			t.Errorf("New(%v) = %v", mt, m)
		}
	}
	if n := int(msgSentinel) - 1; n != 53 {
		t.Fatalf("the table ends at code %d, want 53", n)
	}
	for code := MsgType(1); code < msgSentinel; code++ {
		if _, ok := live[code]; ok {
			continue
		}
		if code.Valid() {
			t.Errorf("retired code %d is Valid", code)
		}
		_, err := ReadMessage(bytes.NewReader([]byte{2, 0, 0, 0, byte(code), 0}))
		if !errors.Is(err, ErrUnknownType) {
			t.Errorf("retired code %d: err = %v, want ErrUnknownType", code, err)
		}
	}
	if len(live) != 35 {
		t.Errorf("%d live codes, want 35", len(live))
	}
}

// tenantCases enumerates every request envelope carrying the appended
// tenant field, with the field set.
func tenantCases() []Message {
	return []Message{
		&ReadReq{Handle: 1, Offset: 8192, Length: 4096, Tenant: "app-a"},
		&WriteReq{Handle: 1, Offset: 64, Data: []byte("payload"), Tenant: "app-a"},
		&TruncReq{Handle: 5, Size: 10, Remove: true, Tenant: "app-a"},
		&ActiveReadReq{RequestID: 11, Handle: 2, Offset: 64, Length: 1 << 20,
			Op: "sum8", Params: []byte{1}, TraceID: 0xCAFE, Tenant: "app-a"},
		&TransformReq{RequestID: 12, SrcHandle: 2, Offset: 64, Length: 1 << 20,
			Op: "gaussian2d", Params: []byte{7}, DstHandle: 3, DstOffset: 64,
			TraceID: 0xCAFE, Tenant: "app-a"},
	}
}

// clearTenant zeroes a message's Tenant field and returns it.
func clearTenant(m Message) Message {
	reflect.ValueOf(m).Elem().FieldByName("Tenant").SetString("")
	return m
}

// Tenant-aware servers must decode pre-tenant clients' frames (tenant
// defaults to ""), and tenant-aware clients speaking for the default
// tenant must emit frames pre-tenant servers accept — which the codec
// guarantees by emitting the old format byte-for-byte when Tenant is
// empty, since a pre-tenant decoder rejects any trailing bytes.
func TestTenantFieldOldPeerInterop(t *testing.T) {
	for _, m := range tenantCases() {
		tenant := reflect.ValueOf(m).Elem().FieldByName("Tenant").String()
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("WriteMessage(%v): %v", m.Type(), err)
		}
		raw := buf.Bytes()
		// Direction 1: a pre-tenant client's frame is the new frame minus
		// the appended field (u32 length prefix + bytes); it must decode
		// with Tenant left empty.
		cut := 4 + len(tenant)
		old := append([]byte(nil), raw[:len(raw)-cut]...)
		binary.LittleEndian.PutUint32(old[0:4], uint32(len(old)-4))
		got, err := ReadMessage(bytes.NewReader(old))
		if err != nil {
			t.Fatalf("%v: pre-tenant frame rejected: %v", m.Type(), err)
		}
		if !reflect.DeepEqual(normalise(got), normalise(clearTenant(m))) {
			t.Errorf("%v: pre-tenant decode mismatch:\n got %#v\nwant %#v", m.Type(), got, m)
		}
		// Direction 2: the same message from a default-tenant client
		// encodes byte-identically to the pre-tenant frame, so a
		// pre-tenant server (which rejects trailing bytes) accepts it.
		var defBuf bytes.Buffer
		if err := WriteMessage(&defBuf, m); err != nil { // m's Tenant now ""
			t.Fatal(err)
		}
		if !bytes.Equal(defBuf.Bytes(), old) {
			t.Errorf("%v: default-tenant frame differs from pre-tenant format (%d vs %d bytes)",
				m.Type(), defBuf.Len(), len(old))
		}
	}
}

// The same interop property must hold through the multiplexed framing:
// a tenant-stamped message reassembles with its tenant, and a
// default-tenant message reassembles to a payload byte-identical to the
// pre-tenant encoding.
func TestTenantFieldMuxFraming(t *testing.T) {
	pr, pw := io.Pipe()
	mw := NewMuxWriter(pw, MinMuxSegment)
	mr := NewMuxReader(pr)
	defer mr.Close()

	msgs := tenantCases()
	var wg sync.WaitGroup
	for i, m := range msgs {
		wg.Add(1)
		go func(stream uint32, m Message) {
			defer wg.Done()
			if err := mw.Enqueue(m, stream, nil); err != nil {
				t.Errorf("enqueue %d: %v", stream, err)
			}
		}(uint32(i+1), m)
	}
	got := make(map[uint32]Message)
	for range msgs {
		f, err := mr.Read()
		if err != nil {
			t.Fatalf("mux read: %v", err)
		}
		Own(f.Msg)
		PutBuf(f.Buf)
		got[f.Stream] = f.Msg
	}
	wg.Wait()
	mw.Close()
	pw.Close()
	for i, m := range msgs {
		g := got[uint32(i+1)]
		if g == nil {
			t.Fatalf("stream %d never arrived", i+1)
		}
		if !reflect.DeepEqual(normalise(g), normalise(m)) {
			t.Errorf("%v: mux round trip mismatch:\n got %#v\nwant %#v", m.Type(), g, m)
		}
		// Empty tenant encodes the pre-tenant payload through this
		// framing too.
		var withTenant, without Codec
		m.Fields(&withTenant)
		tenant := reflect.ValueOf(m).Elem().FieldByName("Tenant").String()
		clearTenant(m).Fields(&without)
		if len(withTenant.Buf())-len(without.Buf()) != 4+len(tenant) {
			t.Errorf("%v: empty tenant did not shrink payload to the pre-tenant format", m.Type())
		}
	}
}

// RemoveResp carries the removed file's Layout as a trailing optional
// field. In both framings: the frame of a metadata server predating it —
// the new frame less the layout's bytes — decodes with an empty layout,
// and a response without a layout is byte-identical to that old frame, so
// a client predating the field (which rejects trailing bytes) accepts it.
func TestRemoveRespLayoutOldPeerInterop(t *testing.T) {
	full := &RemoveResp{Handle: 9, Layout: Layout{StripeSize: 65536, Replicas: 2, Servers: []uint32{1, 2, 3}}}
	bare := &RemoveResp{Handle: 9}
	const layoutBytes = 4 + 1 + 4 + 3*4

	ordered := func(m Message) []byte {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	raw := ordered(full)
	old := append([]byte(nil), raw[:len(raw)-layoutBytes]...)
	binary.LittleEndian.PutUint32(old[0:4], uint32(len(old)-4))
	got, err := ReadMessage(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("layout-less frame rejected: %v", err)
	}
	if !reflect.DeepEqual(normalise(got), normalise(bare)) {
		t.Errorf("layout-less frame decoded as %#v", got)
	}
	if !bytes.Equal(ordered(bare), old) {
		t.Error("a response without a layout differs from the old format")
	}
	if got := roundTrip(t, full); !reflect.DeepEqual(got, full) {
		t.Errorf("round trip = %#v, want %#v", got, full)
	}

	pr, pw := io.Pipe()
	mw := NewMuxWriter(pw, MinMuxSegment)
	mr := NewMuxReader(pr)
	defer mr.Close()
	go func() {
		for i, m := range []Message{full, bare} {
			if err := mw.Enqueue(m, uint32(i+1), nil); err != nil {
				t.Errorf("enqueue: %v", err)
			}
		}
	}()
	for _, want := range []*RemoveResp{full, bare} {
		f, err := mr.Read()
		if err != nil {
			t.Fatalf("mux read: %v", err)
		}
		if !reflect.DeepEqual(normalise(f.Msg), normalise(want)) {
			t.Errorf("mux round trip = %#v, want %#v", f.Msg, want)
		}
		PutBuf(f.Buf)
	}
	mw.Close()
	pw.Close()
}
