package pfs

// Mapped sends: a plain read of ≥ zeroCopyMin bytes that lies in extent
// files leaves the server from their read-only mappings — one writev per mux
// segment on TCP, a staged copy on the in-process pipe. The fault rule: an
// extent cut under the send zero-fills the rest of the frame, which keeps
// its announced length; the process does not die of SIGBUS, the connection
// stays in step, and the fd-cache pins and mappings the payload took come
// back.

import (
	"bytes"
	"io"
	"net"
	"testing"

	"dosas/internal/transport"
	"dosas/internal/wire"
)

// smallBufTCP is TCP whose accepted connections keep a small, fixed send
// buffer: with the client's receive buffer also small, the bytes a server
// can have written ahead of what the client has read stay far below the
// frames these tests send, so a cut made after the client read a frame's
// first bytes lands before the server reaches the bytes past it.
type smallBufTCP struct{ transport.TCP }

func (n smallBufTCP) Listen(addr string) (transport.Listener, error) {
	l, err := n.TCP.Listen(addr)
	return smallBufListener{l}, err
}

type smallBufListener struct{ transport.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		if err := tc.SetWriteBuffer(16 << 10); err != nil {
			tc.Close()
			return nil, err
		}
	}
	return c, err
}

// startSendNode starts a data server over an extent store of ext-byte
// extents (0: the default), without a gate, on TCP (small socket buffers)
// or the in-process pipe.
func startSendNode(t *testing.T, tcp bool, ext int64) *landNode {
	t.Helper()
	es, err := NewExtentStore(ExtentConfig{Dir: t.TempDir(), ExtentSize: ext})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataServer(DataConfig{Store: es})
	if err != nil {
		t.Fatal(err)
	}
	if tcp {
		return serveData(t, es, ds, smallBufTCP{}, "127.0.0.1:0")
	}
	return serveData(t, es, ds, transport.NewInproc(), "data-0")
}

// startRead asks for a read on stream 1 of a fresh connection and returns
// once the first head bytes of the answer are in: the frame is leaving
// the server. rc's reader continues from there.
func startRead(t *testing.T, n *landNode, req *wire.ReadReq, head int) *rawConn {
	t.Helper()
	rc := dialRaw(t, n.nw, n.addr)
	if tc, ok := rc.Conn.(*net.TCPConn); ok {
		if err := tc.SetReadBuffer(16 << 10); err != nil {
			t.Fatal(err)
		}
	}
	var e wire.Codec
	req.Fields(&e)
	rc.send(t, appendSegment(nil, wire.MsgReadReq, 1, e.Buf(), false, -1))
	first := make([]byte, head)
	if _, err := io.ReadFull(rc.Conn, first); err != nil {
		t.Fatal(err)
	}
	rc.mr = wire.NewMuxReader(io.MultiReader(bytes.NewReader(first), rc.Conn))
	return rc
}

// sendStats reads how the server's frames moved their bodies.
func sendStats(ds *DataServer) (mapped, copied, cancelled int64) {
	st := ds.WireStats()
	return st.MappedBytes.Load(), st.CopiedBytes.Load(), st.CancelledBytes.Load()
}

// A read whose extents are cut by the store's Truncate after its frame
// began to leave: the client gets the whole frame, with zeros past the cut
// and the file's bytes (or zeros, where a writev stopped short of the cut)
// before it; the same connection then answers a Ping, and the payload's
// pins and mappings come back. A 2 MiB read in one extent is cut inside
// it; a 3 MiB read over three 1 MiB extents is cut in the second, so the
// third is removed while its mapping is still lent to the frame.
func TestMappedSendTruncatedUnder(t *testing.T) {
	const head = 64 << 10
	for _, tc := range []struct {
		name      string
		tcp       bool
		ext       int64
		size, cut int
	}{
		{"TCP", true, 0, 2 << 20, 1<<20 + 100<<10 + 100},
		{"in-process pipe", false, 0, 2 << 20, 1<<20 + 100<<10 + 100},
		{"TCP, an extent removed", true, 1 << 20, 3 << 20, 1<<20 + 1000},
		{"in-process pipe, an extent removed", false, 1 << 20, 3 << 20, 1<<20 + 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			size, cut := tc.size, tc.cut
			n := startSendNode(t, tc.tcp, tc.ext)
			base := n.es.MappedExtents()
			data := seeded(size, 1)
			if _, err := n.es.WriteAt(1, data, 0); err != nil {
				t.Fatal(err)
			}
			rc := startRead(t, n, &wire.ReadReq{Handle: 1, Length: uint32(size)}, head)
			if err := n.es.Truncate(1, uint64(cut)); err != nil {
				t.Fatal(err)
			}
			rr, ok := rc.recv(t, 1).(*wire.ReadResp)
			if !ok || len(rr.Data) != size {
				t.Fatalf("answer %T with %d bytes, want a ReadResp of %d", rr, len(rr.Data), size)
			}
			for i, b := range rr.Data {
				switch {
				case i >= cut && b != 0:
					t.Fatalf("byte %d, past the cut at %d, is %#x; want 0", i, cut, b)
				case i < cut && b != data[i] && (b != 0 || i < head):
					t.Fatalf("byte %d, before the cut, is %#x: neither the file's (%#x) nor a zero-fill", i, b, data[i])
				case i < cut && b != data[i] && !tc.tcp:
					t.Fatalf("byte %d, before the cut, is %#x; a staged copy zero-fills only past the cut", i, b)
				}
			}
			rc.ping(t, 3)
			mapped, copied, _ := sendStats(n.ds)
			if tc.tcp && (mapped == 0 || mapped >= int64(cut)) {
				t.Errorf("wire.mapped_bytes = %d, want some, and fewer than the %d bytes before the cut", mapped, cut)
			}
			if !tc.tcp && (mapped != 0 || copied != int64(size)) {
				t.Errorf("in-process: mapped_bytes %d, copied_bytes %d; want 0 and %d (staged)", mapped, copied, size)
			}
			quiescent(t, n.ds)
			if err := n.es.Remove(1); err != nil {
				t.Fatal(err)
			}
			if m := n.es.MappedExtents(); m != base {
				t.Errorf("MappedExtents = %d after the file is removed, want %d", m, base)
			}
		})
	}
}

// A hedged read cancelled while its mapped frame leaves: the rest of the
// frame goes out as zeros, not from the mapping, and the connection and
// the payload's pins come back as after any read.
func TestMappedSendCancelledZeroFills(t *testing.T) {
	const size, head = 2 << 20, 64 << 10
	for _, tc := range []struct {
		name string
		tcp  bool
	}{{"TCP", true}, {"in-process pipe", false}} {
		t.Run(tc.name, func(t *testing.T) {
			n := startSendNode(t, tc.tcp, 0)
			data := seeded(size, 2)
			if _, err := n.es.WriteAt(1, data, 0); err != nil {
				t.Fatal(err)
			}
			id := HedgeIDBit | 7
			rc := startRead(t, n, &wire.ReadReq{Handle: 1, Length: size, ReqID: id}, head)
			var e wire.Codec
			(&wire.CancelReq{RequestID: id}).Fields(&e)
			rc.send(t, appendSegment(nil, wire.MsgCancelReq, 2, e.Buf(), false, -1))
			waitFor(t, "the cancel to find the read", func() bool { return n.ds.m.cancel.Value() == 1 })
			var rr *wire.ReadResp
			for rr == nil {
				f, err := rc.mr.Read()
				if err != nil {
					t.Fatal(err)
				}
				wire.Own(f.Msg)
				wire.PutBuf(f.Buf)
				switch m := f.Msg.(type) {
				case *wire.ReadResp:
					rr = m
				case *wire.CancelResp:
					if !m.Found {
						t.Fatal("the cancel did not find the read")
					}
				default:
					t.Fatalf("unexpected answer %v", m)
				}
			}
			if len(rr.Data) != size {
				t.Fatalf("cancelled frame carries %d bytes, want %d", len(rr.Data), size)
			}
			last := rr.Data[size-wire.DefaultMuxSegment:]
			if !bytes.Equal(last, make([]byte, len(last))) {
				t.Error("the frame's last segment, written after the cancel, is not zero-filled")
			}
			for i, b := range rr.Data {
				if b != data[i] && (b != 0 || i < head) {
					t.Fatalf("byte %d is %#x: neither the file's (%#x) nor a zero-fill", i, b, data[i])
				}
			}
			if _, _, c := sendStats(n.ds); c < int64(len(last)) {
				t.Errorf("wire.cancelled_bytes = %d, want at least the last segment's %d", c, len(last))
			}
			rc.ping(t, 3)
			quiescent(t, n.ds)
		})
	}
}
