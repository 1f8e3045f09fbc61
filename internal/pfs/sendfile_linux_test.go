package pfs

// Sendfile sends: a plain read of ≥ zeroCopyMin bytes that the extent
// files do not hold in full — it covers a hole or a short extent file —
// leaves the server as a FilePayload, its file sections by sendfile(2) and
// its holes as zeros. These goldens pin the bytes a TCP client receives
// for such reads, an extent cut in mid-send included, so that the path
// that replaces sendfile can be held to the same bytes.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net"
	"testing"

	"dosas/internal/wire"
)

// readCaptured sends req on stream 1 of a fresh connection with a small
// receive buffer, waits for the first head bytes of the answer, runs
// during, and returns the answer together with every byte of its frame
// as the client received them.
func readCaptured(t *testing.T, n *landNode, req *wire.ReadReq, head int, during func()) (*wire.ReadResp, []byte, *rawConn) {
	t.Helper()
	rc := dialRaw(t, n.nw, n.addr)
	if err := rc.Conn.(*net.TCPConn).SetReadBuffer(16 << 10); err != nil {
		t.Fatal(err)
	}
	var e wire.Codec
	req.Fields(&e)
	rc.send(t, appendSegment(nil, wire.MsgReadReq, 1, e.Buf(), false, -1))
	first := make([]byte, head)
	if _, err := io.ReadFull(rc.Conn, first); err != nil {
		t.Fatal(err)
	}
	during()
	var raw bytes.Buffer
	rc.mr = wire.NewMuxReader(io.TeeReader(io.MultiReader(bytes.NewReader(first), rc.Conn), &raw))
	rr, ok := rc.recv(t, 1).(*wire.ReadResp)
	if !ok {
		t.Fatalf("answer %T, want a ReadResp", rr)
	}
	return rr, raw.Bytes(), rc
}

func TestSendfileReadGolden(t *testing.T) {
	const ext = 1 << 20
	const cut = ext + 100<<10 + 100
	for _, tc := range []struct {
		name string
		// write lays out stream 1 and returns the bytes a read of
		// [off, off+n) sends when nothing changes under it.
		write    func(t *testing.T, es *ExtentStore) []byte
		off, n   uint64
		truncate uint64 // when non-zero, the stream is cut to this size once the frame is leaving
		sendfile int64  // bytes that leave by sendfile
		golden   string // SHA-256 of the frame's bytes on the wire
	}{
		{
			// [768 KiB, 1 MiB) is a hole (no extent file), [1 MiB,
			// 1.25 MiB) the second extent's bytes.
			name: "hole",
			write: func(t *testing.T, es *ExtentStore) []byte {
				data := seeded(256<<10, 11)
				mustWrite(t, es, data, ext)
				return append(make([]byte, 256<<10), data...)
			},
			off: ext - 256<<10, n: 512 << 10,
			sendfile: 256 << 10,
			golden:   "be40feb2e7d52c5d50717b2dbc9c970e7c3658ad212f8b8209551f6ef133debf",
		},
		{
			// The first extent file holds 100 KiB of its 1 MiB, the
			// second 64 KiB: the rest of the first reads as zeros.
			name: "short extent",
			write: func(t *testing.T, es *ExtentStore) []byte {
				a, b := seeded(100<<10, 12), seeded(64<<10, 13)
				mustWrite(t, es, a, 0)
				mustWrite(t, es, b, ext)
				return append(append(a, make([]byte, ext-len(a))...), b...)
			},
			off: 0, n: ext + 64<<10,
			sendfile: 100<<10 + 64<<10,
			golden:   "11167e9c60a871a2cad90c76a35d53b85ccd31fa14ea339e3d7ed0cee0779fb3",
		},
		{
			// A 1 MiB hole, then the second extent's 1 MiB, cut to
			// 100 KiB + 100 while the hole's zeros leave: the rest of
			// the frame is zero-filled and keeps its announced length.
			name: "extent cut during the send",
			write: func(t *testing.T, es *ExtentStore) []byte {
				data := seeded(ext, 14)
				mustWrite(t, es, data, ext)
				want := make([]byte, 2*ext)
				copy(want[ext:cut], data)
				return want
			},
			off: 0, n: 2 * ext,
			truncate: cut,
			sendfile: cut - ext,
			golden:   "16743696d45ec390efc52422269b1e0c4a906c6eb3717ea8ea54d37b68411102",
		},
		{
			// A 1 MiB hole, then two extents of 1 MiB, cut to 1 MiB +
			// 1000 while the hole's zeros leave: the second extent is cut
			// to 1000 bytes and the third removed, and every byte past
			// the cut is zero, the removed extent's included.
			name: "extent removed during the send",
			write: func(t *testing.T, es *ExtentStore) []byte {
				a, b := seeded(ext, 15), seeded(ext, 16)
				mustWrite(t, es, a, ext)
				mustWrite(t, es, b, 2*ext)
				want := make([]byte, 3*ext)
				copy(want[ext:ext+1000], a)
				return want
			},
			off: 0, n: 3 * ext,
			truncate: ext + 1000,
			sendfile: 1000,
			golden:   "25ebd501c9ddd90abeca50299516ee0fc68ce870883df65c4e7fd7f09cd9cca5",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			es, err := NewExtentStore(ExtentConfig{Dir: t.TempDir(), ExtentSize: ext})
			if err != nil {
				t.Fatal(err)
			}
			ds, err := NewDataServer(DataConfig{Store: es})
			if err != nil {
				t.Fatal(err)
			}
			n := serveData(t, es, ds, smallBufTCP{}, "127.0.0.1:0")
			want := tc.write(t, es)
			rr, raw, rc := readCaptured(t, n, &wire.ReadReq{Handle: 1, Offset: tc.off, Length: uint32(tc.n)}, 64<<10, func() {
				if tc.truncate != 0 {
					if err := es.Truncate(1, tc.truncate); err != nil {
						t.Fatal(err)
					}
				}
			})
			if !bytes.Equal(rr.Data, want) {
				t.Errorf("ReadResp carries %d bytes that differ from the %d expected", len(rr.Data), len(want))
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != tc.golden {
				t.Errorf("frame of %d bytes hashes to %s, want %s", len(raw), got, tc.golden)
			}
			ds.SyncWireStats()
			reg := ds.Metrics()
			if got := reg.Counter("wire.sendfile_bytes").Value(); got != tc.sendfile {
				t.Errorf("wire.sendfile_bytes = %d, want %d", got, tc.sendfile)
			}
			if got := reg.Counter("wire.mapped_bytes").Value(); got != 0 {
				t.Errorf("wire.mapped_bytes = %d, want 0: the read must not leave from a mapping", got)
			}
			rc.ping(t, 3)
			quiescent(t, ds)
		})
	}
}

func mustWrite(t *testing.T, es *ExtentStore, p []byte, off uint64) {
	t.Helper()
	if _, err := es.WriteAt(1, p, off); err != nil {
		t.Fatal(err)
	}
}
