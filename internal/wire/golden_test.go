package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/frames.golden from the current encoder")

const framesGolden = "testdata/frames.golden"

// goldenCases is one message of every live type, plus the variants whose
// bytes depend on an optional field or on how a bulk body is supplied.
func goldenCases() []struct {
	name string
	m    Message
} {
	layout := Layout{StripeSize: 65536, Replicas: 2, Servers: []uint32{2, 0, 1}}
	body := []byte("stripe body bytes")
	// A Payload that is not in memory goes by reference (head, body, tail);
	// memBytes below vectoredMin is materialized inline.
	mapped := func() Payload { return NewMappedPayload([][]byte{body[:6], body[6:]}, nil) }
	return []struct {
		name string
		m    Message
	}{
		{"error", &ErrorMsg{Code: StatusNotFound, Op: "open", Detail: "no such file"}},
		{"ping", &Ping{Seq: 7}},
		{"pong", &Pong{Seq: 0x0102030405060708}},
		{"create.req", &CreateReq{Name: "a/b", StripeSize: 1 << 16, Width: 4, Replicas: 2}},
		{"create.req/placement", &CreateReq{Name: "placed", StripeSize: 1 << 16, Placement: []uint32{2, 0}}},
		{"create.resp", &CreateResp{Handle: 9, Layout: layout}},
		{"open.req", &OpenReq{Name: "a/b"}},
		{"open.req/tenant", &OpenReq{Name: "a/b", Tenant: "app-a"}},
		{"open.resp", &OpenResp{Handle: 9, Size: 1 << 30, Layout: layout}},
		{"stat.req", &StatReq{Name: "a/b"}},
		{"stat.req/tenant", &StatReq{Name: "a/b", Tenant: "app-a"}},
		{"stat.resp", &StatResp{Handle: 9, Size: 12345, ModUnixN: -99, Layout: layout}},
		{"remove.req", &RemoveReq{Name: "x"}},
		{"remove.resp", &RemoveResp{Handle: 3}},
		{"remove.resp/layout", &RemoveResp{Handle: 3, Layout: layout}},
		{"remove.resp/layout+size", &RemoveResp{Handle: 3, Layout: layout, Size: 4096}},
		{"list.req", &ListReq{Prefix: "data/"}},
		{"list.req/tenant", &ListReq{Prefix: "data/", Tenant: "app-a"}},
		{"list.resp", &ListResp{Names: []string{"data/a", "", "data/b"}}},
		{"setsize.req", &SetSizeReq{Handle: 4, Size: 77}},
		{"setsize.resp", &SetSizeResp{Size: 77}},
		{"read.req", &ReadReq{Handle: 1, Offset: 8192, Length: 4096}},
		{"read.req/tenant", &ReadReq{Handle: 1, Offset: 8192, Length: 4096, Tenant: "app-a"}},
		{"read.req/reqid", &ReadReq{Handle: 1, Offset: 8192, Length: 4096, ReqID: 0xABCD}},
		{"read.req/tenant+reqid", &ReadReq{Handle: 1, Offset: 8192, Length: 4096, Tenant: "app-a", ReqID: 0xABCD}},
		{"read.resp/data", &ReadResp{Data: body, EOF: true}},
		{"read.resp/payload", &ReadResp{Payload: mapped(), EOF: true}},
		{"read.resp/payload-inline", &ReadResp{Payload: memBytes(body)}},
		{"write.req/data", &WriteReq{Handle: 1, Offset: 64, Data: body}},
		{"write.req/data+tenant", &WriteReq{Handle: 1, Offset: 64, Data: body, Tenant: "app-a"}},
		{"write.req/payload", &WriteReq{Handle: 1, Offset: 64, Payload: mapped()}},
		{"write.req/payload+tenant", &WriteReq{Handle: 1, Offset: 64, Payload: mapped(), Tenant: "app-a"}},
		{"write.req/payload-inline", &WriteReq{Handle: 1, Offset: 64, Payload: memBytes(body), Tenant: "app-a"}},
		{"write.resp", &WriteResp{N: 17}},
		{"trunc.req", &TruncReq{Handle: 5, Size: 10, Remove: true}},
		{"trunc.req/tenant", &TruncReq{Handle: 5, Size: 10, Remove: true, Tenant: "app-a"}},
		{"trunc.resp", &TruncResp{}},
		{"activeread.req", &ActiveReadReq{RequestID: 11, Handle: 2, Offset: 64, Length: 1 << 20,
			Op: "sum8", Params: []byte{1}, ResumeState: []byte{2, 3}, TraceID: 0xCAFE0001}},
		{"activeread.req/tenant", &ActiveReadReq{RequestID: 11, Handle: 2, Offset: 64, Length: 1 << 20,
			Op: "sum8", Params: []byte{1}, TraceID: 0xCAFE0001, Tenant: "app-a"}},
		{"activeread.resp", &ActiveReadResp{RequestID: 11, Disposition: ActiveInterrupted,
			Result: []byte{4}, State: []byte{5, 6}, Processed: 512, TraceID: 0xCAFE0001}},
		{"probe.req", &ProbeReq{}},
		{"probe.resp", &ProbeResp{QueueLen: 3, ActiveQueueLen: 2, BusyCores: 1.5, TotalCores: 2,
			MemUsed: 100, MemTotal: 1000, BytesQueued: 4096}},
		{"cancel.req", &CancelReq{RequestID: 11, TraceID: 0xCAFE0001}},
		{"cancel.resp", &CancelResp{Found: true}},
		{"transform.req", &TransformReq{RequestID: 12, SrcHandle: 2, Offset: 64, Length: 1 << 20,
			Op: "gaussian2d", Params: []byte{7}, DstHandle: 3, DstOffset: 64, TraceID: 0xCAFE0002}},
		{"transform.req/tenant", &TransformReq{RequestID: 12, SrcHandle: 2, Offset: 64, Length: 1 << 20,
			Op: "gaussian2d", Params: []byte{7}, DstHandle: 3, DstOffset: 64, TraceID: 0xCAFE0002, Tenant: "app-a"}},
		{"transform.resp", &TransformResp{RequestID: 12, Written: 1 << 20}},
		{"localsize.req", &LocalSizeReq{Handle: 9}},
		{"localsize.resp", &LocalSizeResp{Size: 1 << 30}},
		{"hello.req", &HelloReq{MaxVersion: 3, MaxSegment: DefaultMuxSegment}},
		{"hello.resp", &HelloResp{Version: 3, MaxSegment: 64 << 10}},
		{"introspect.req", &IntrospectReq{Kind: "series", Params: []byte(`{"window_nano":2000000000}`)}},
		{"introspect.req/noparams", &IntrospectReq{Kind: "health"}},
		{"introspect.resp", &IntrospectResp{Node: "data-0", Body: []byte(`{"ok":true}`)}},
	}
}

// TestFramesGolden pins the bytes of every message: written plainly, by
// the by-reference fast paths and through the mux writer, each frame must
// equal the one recorded in testdata/frames.golden, and decoding the
// recorded frame and writing it again must give it back. Round-trip tests
// alone pass for any symmetric layout; this one fails on any layout change.
func TestFramesGolden(t *testing.T) {
	got := make(map[string]string)
	var names []string
	seen := make(map[MsgType]bool)
	for _, c := range goldenCases() {
		var plain, fast bytes.Buffer
		if err := WriteMessageOpts(&plain, c.m, WriteOptions{Plain: true}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := WriteMessage(&fast, c.m); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(plain.Bytes(), fast.Bytes()) {
			t.Errorf("%s: fast path frame differs from the plain one:\n%x\n%x", c.name, fast.Bytes(), plain.Bytes())
		}
		if mux := muxPayload(t, c.m); !bytes.Equal(mux, plain.Bytes()[6:]) {
			t.Errorf("%s: mux payload differs from the frame's:\n%x\n%x", c.name, mux, plain.Bytes()[6:])
		}
		got[c.name] = hex.EncodeToString(plain.Bytes())
		names = append(names, c.name)
		seen[c.m.Type()] = true
	}
	for mt := MsgType(1); mt < msgSentinel; mt++ {
		if mt.Valid() && !seen[mt] {
			t.Errorf("%v has no golden frame", mt)
		}
	}

	if *updateGolden {
		var b strings.Builder
		for _, n := range names {
			b.WriteString(n + " " + got[n] + "\n")
		}
		if err := os.MkdirAll(filepath.Dir(framesGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(framesGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	want := readGolden(t, framesGolden)
	if len(want) != len(got) {
		t.Errorf("golden file has %d frames, the cases %d", len(want), len(got))
	}
	for _, n := range names {
		w, ok := want[n]
		if !ok {
			t.Errorf("%s: no golden frame", n)
			continue
		}
		if got[n] != w {
			t.Errorf("%s: frame changed:\n got %s\nwant %s", n, got[n], w)
		}
		raw, err := hex.DecodeString(w)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		m, err := ReadMessage(bytes.NewReader(raw))
		if err != nil {
			t.Errorf("%s: golden frame does not decode: %v", n, err)
			continue
		}
		var again bytes.Buffer
		if err := WriteMessage(&again, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), raw) {
			t.Errorf("%s: decoded golden frame writes back as\n%x", n, again.Bytes())
		}
	}
}

// muxPayload enqueues m on a mux writer and returns the payload of the
// one segment it writes.
func muxPayload(t *testing.T, m Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	mw := NewMuxWriter(&buf, DefaultMuxSegment)
	done := make(chan error, 1)
	if err := mw.Enqueue(m, 1, func(err error) { done <- err }); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if len(raw) < muxHdrSize || raw[11] != 0 {
		t.Fatalf("%v: not one mux segment: %x", m.Type(), raw)
	}
	return raw[muxHdrSize:]
}

// readGolden reads "name hex" lines.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, h, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: bad line %q", path, sc.Text())
		}
		out[name] = h
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
