package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
)

// TestMappedPayloadByteIdentity: a ReadResp whose body is a MappedPayload
// (here over two plain slices, split off a page boundary) puts the bytes of
// the inline encoding on the wire in both framings. Over TCP each mux
// segment is one writev and every body byte counts as mapped; over any
// other writer the body is staged and counts as copied.
func TestMappedPayloadByteIdentity(t *testing.T) {
	for _, n := range []int{64 << 10, 300_000, 2<<20 + 17} {
		data := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(data)
		mapped := func() *MappedPayload { return NewMappedPayload([][]byte{data[:n/3], data[n/3:]}, nil) }

		var want bytes.Buffer
		mwInline := NewMuxWriter(&want, DefaultMuxSegment)
		mwInline.Plain = true
		if err := mwInline.Enqueue(&ReadResp{Data: data, EOF: true}, 7, nil); err != nil {
			t.Fatal(err)
		}
		mwInline.Close()

		for _, tcp := range []bool{true, false} {
			var st FrameStats
			got := muxSend(t, tcp, &ReadResp{Payload: mapped(), EOF: true}, &st)
			if !bytes.Equal(want.Bytes(), got) {
				t.Fatalf("n=%d tcp=%v: mux stream differs from inline (%d vs %d bytes)", n, tcp, len(got), want.Len())
			}
			segs := int64(0)
			for off := 0; off < len(got); off += 4 + int(binary.LittleEndian.Uint32(got[off:])) {
				segs++
			}
			if tcp && (st.MappedBytes.Load() != int64(n) || st.CopiedBytes.Load() != 0 || st.WritevCalls.Load() != segs) {
				t.Errorf("n=%d over TCP: mapped %d, copied %d, writev calls %d; want %d, 0 and one a segment (%d)",
					n, st.MappedBytes.Load(), st.CopiedBytes.Load(), st.WritevCalls.Load(), n, segs)
			}
			if !tcp && (st.MappedBytes.Load() != 0 || st.CopiedBytes.Load() != int64(n)) {
				t.Errorf("n=%d over a pipe: mapped %d, copied %d; want 0 and %d", n, st.MappedBytes.Load(), st.CopiedBytes.Load(), n)
			}
		}

		var ordered, orderedWant bytes.Buffer
		if err := WriteMessageOpts(&orderedWant, &ReadResp{Data: data, EOF: true}, WriteOptions{Plain: true}); err != nil {
			t.Fatal(err)
		}
		if err := WriteMessage(&ordered, &ReadResp{Payload: mapped(), EOF: true}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(orderedWant.Bytes(), ordered.Bytes()) {
			t.Fatalf("n=%d: ordered frame differs from inline", n)
		}
	}
}

// muxSend writes m through a MuxWriter on a TCP loopback connection, or on
// one end of net.Pipe, and returns the bytes the other end read.
func muxSend(t *testing.T, tcp bool, m Message, st *FrameStats) []byte {
	t.Helper()
	var w, r net.Conn
	if tcp {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if w, err = net.Dial("tcp", l.Addr().String()); err != nil {
			t.Fatal(err)
		}
		if r, err = l.Accept(); err != nil {
			t.Fatal(err)
		}
	} else {
		w, r = net.Pipe()
	}
	defer r.Close()
	var got []byte
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, _ = io.ReadAll(r)
	}()
	mw := NewMuxWriter(w, DefaultMuxSegment)
	mw.Stats = st
	sent := make(chan error, 1)
	if err := mw.Enqueue(m, 7, func(err error) { sent <- err }); err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	mw.Close()
	w.Close()
	wg.Wait()
	return got
}
