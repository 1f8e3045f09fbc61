package pfs

// Landed reads: a ReadResp body goes from the connection into the view it
// was requested for and nowhere else, whatever the segmentation; and no
// landing writes into a caller's buffer once the call holding it returned.
// Landed writes decode as the buffered ones do (FuzzWriteLanding; the data
// server's side is in write_landing_test.go).

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net"
	"testing"
	"time"

	"dosas/internal/transport"
	"dosas/internal/wire"
)

// appendSegment appends one hand-built mux segment of a message of type mt
// on stream to out: part of its payload, with FlagMore if more follows,
// announcing total (FlagTotal) when total >= 0.
func appendSegment(out []byte, mt wire.MsgType, stream uint32, part []byte, more bool, total int) []byte {
	var flags uint8
	size := 8 + len(part) // type, stream, class and flags, then the bytes
	if more {
		flags = wire.FlagMore
	}
	if total >= 0 {
		flags |= wire.FlagTotal
		size += 4
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(size))
	out = binary.LittleEndian.AppendUint16(out, uint16(mt))
	out = binary.LittleEndian.AppendUint32(out, stream)
	out = append(out, wire.ClassBulk, flags)
	if total >= 0 {
		out = binary.LittleEndian.AppendUint32(out, uint32(total))
	}
	return append(out, part...)
}

// muxSegments cuts payload, the payload of one message of type mt on
// stream 1, into mux segments of random sizes.
func muxSegments(mt wire.MsgType, payload []byte, rng *rand.Rand) []byte {
	var out []byte
	for off := 0; ; {
		n := len(payload) - off
		if n > 1 && rng.Intn(2) == 0 {
			n = 1 + rng.Intn(n)
		}
		more := off+n < len(payload)
		total := -1
		if more && off == 0 {
			total = len(payload)
		}
		out = appendSegment(out, mt, 1, payload[off:off+n], more, total)
		if off += n; !more {
			return out
		}
	}
}

// FuzzMuxLanding decodes one ReadResp, cut into random segments, twice:
// assembled in a frame buffer, and landed in a random striping view. Both
// accept it or both refuse it; accepted, the view holds the body as far as
// it has room and the message reports the body's length and EOF flag. A
// bad length prefix or a truncated tail is refused. Whatever the input, no
// byte outside the view changes, and none inside it past the body.
func FuzzMuxLanding(f *testing.F) {
	f.Add([]byte("a body of some bytes"), true, int64(1), uint16(3), uint16(4), uint8(2), int16(0), uint8(0))
	f.Add(bytes.Repeat([]byte{7}, 5000), false, int64(2), uint16(1000), uint16(4096), uint8(1), int16(0), uint8(0))
	f.Add(bytes.Repeat([]byte{8}, 3000), true, int64(3), uint16(100), uint16(512), uint8(3), int16(64), uint8(0))
	f.Add(bytes.Repeat([]byte{9}, 3000), true, int64(4), uint16(100), uint16(512), uint8(3), int16(-700), uint8(0)) // over capacity
	f.Add(bytes.Repeat([]byte{10}, 2000), false, int64(5), uint16(9), uint16(64), uint8(2), int16(0), uint8(1))     // bad prefix
	f.Add(bytes.Repeat([]byte{11}, 2000), false, int64(6), uint16(9), uint16(64), uint8(2), int16(0), uint8(2))     // torn tail
	f.Add([]byte{}, true, int64(7), uint16(1), uint16(1), uint8(0), int16(3), uint8(0))
	f.Fuzz(func(t *testing.T, body []byte, eof bool, seed int64, first, piece uint16, width uint8, slack int16, fault uint8) {
		g := geom{piece: 1 + int(piece)%4096, n: max(1, len(body)+int(slack))}
		g.skip = int(width) % 4 * g.piece
		g.first = min(1+int(first)%g.piece, g.n)
		v := g.view(seed)
		before := bytes.Clone(v.buf)

		rng := rand.New(rand.NewSource(seed))
		payload := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
		payload = append(append(payload, body...), 0)
		if eof {
			payload[len(payload)-1] = 1
		}
		if fault%3 == 1 {
			binary.LittleEndian.PutUint32(payload, uint32(len(body)+1+rng.Intn(1000)))
		}
		stream := muxSegments(wire.MsgReadResp, payload, rng)
		if fault%3 == 2 {
			stream = stream[:rng.Intn(len(stream))]
		}

		ma := wire.NewMuxReader(bytes.NewReader(stream))
		defer ma.Close()
		fa, errA := ma.Read()
		defer wire.PutBuf(fa.Buf)
		l := &landing{dst: v}
		ml := wire.NewMuxReader(bytes.NewReader(stream))
		defer ml.Close()
		ml.Dest = func(uint32) wire.Landing { return l }
		fl, errL := ml.Read()

		inView := make([]bool, len(v.buf))
		for i := 0; i < g.n; i++ {
			inView[g.at(i)] = true
		}
		for i := range v.buf {
			if !inView[i] && v.buf[i] != before[i] {
				t.Fatalf("byte %d outside the view %+v was written", i, g)
			}
		}
		if (errA == nil) != (errL == nil) {
			t.Fatalf("assembled decode: %v, landed decode: %v", errA, errL)
		}
		if errL == nil && fault%3 != 0 {
			t.Fatalf("fault %d accepted", fault%3)
		}
		was := gather(strided{buf: before, first: g.first, piece: g.piece, skip: g.skip, n: g.n})
		got := gather(v)
		if errL != nil {
			return
		}
		ra, rl := fa.Msg.(*wire.ReadResp), fl.Msg.(*wire.ReadResp)
		if rl.Data != nil || rl.Landed != len(ra.Data) || rl.EOF != ra.EOF {
			t.Fatalf("landed %d bytes (eof %v, data %v), assembled %d (eof %v)", rl.Landed, rl.EOF, rl.Data != nil, len(ra.Data), ra.EOF)
		}
		k := min(g.n, len(ra.Data))
		if !bytes.Equal(got[:k], ra.Data[:k]) || !bytes.Equal(got[k:], was[k:]) {
			t.Fatalf("view %+v does not hold the body's first %d bytes and its own bytes after them", g, k)
		}
	})
}

// viewLanding is a landing in a striping view granted to a WriteReq body;
// it counts its aborts.
type viewLanding struct {
	landing
	aborts int
}

func (l *viewLanding) Abort() { l.aborts++ }

// FuzzWriteLanding decodes one WriteReq, with or without a tenant and cut
// into random segments, twice: assembled in a frame buffer, and with
// WriteDest granting or declining at random a landing in a random striping
// view. Both accept it or both refuse it; accepted, they give the same
// handle, offset, tenant and bytes, the landed ones in the view as far as
// it has room. A bad length prefix, an oversize body and a torn tenant are
// refused. Whatever the input, no byte outside the view changes, WriteDest
// is asked at most once and with the request's address, and a granted
// landing is either delivered or aborted exactly once.
func FuzzWriteLanding(f *testing.F) {
	f.Add([]byte("a body of some bytes"), "", uint64(1), uint64(2), int64(1), uint16(3), uint16(4), uint8(2), int16(0), true, uint8(0))
	f.Add(bytes.Repeat([]byte{7}, 5000), "tenant", uint64(3), uint64(1<<40), int64(2), uint16(1000), uint16(4096), uint8(1), int16(0), true, uint8(0))
	f.Add(bytes.Repeat([]byte{8}, 3000), "t", uint64(4), uint64(0), int64(3), uint16(100), uint16(512), uint8(3), int16(-700), true, uint8(0)) // over capacity
	f.Add(bytes.Repeat([]byte{9}, 3000), "victim", uint64(5), uint64(9), int64(4), uint16(100), uint16(512), uint8(3), int16(0), false, uint8(0))
	f.Add(bytes.Repeat([]byte{10}, 2000), "", uint64(6), uint64(0), int64(5), uint16(9), uint16(64), uint8(2), int16(0), true, uint8(1))   // bad prefix
	f.Add(bytes.Repeat([]byte{11}, 2000), "", uint64(7), uint64(0), int64(6), uint16(9), uint16(64), uint8(2), int16(0), true, uint8(2))   // oversize body
	f.Add(bytes.Repeat([]byte{12}, 2000), "ab", uint64(8), uint64(0), int64(7), uint16(9), uint16(64), uint8(2), int16(0), true, uint8(3)) // torn tenant
	f.Add([]byte{}, "", uint64(0), uint64(0), int64(8), uint16(1), uint16(1), uint8(0), int16(3), true, uint8(3))
	f.Fuzz(func(t *testing.T, body []byte, tenant string, handle, off uint64, seed int64, first, piece uint16, width uint8, slack int16, grant bool, fault uint8) {
		if len(tenant) > wire.MaxStringLen {
			return // not encodable
		}
		g := geom{piece: 1 + int(piece)%4096, n: max(1, len(body)+int(slack))}
		g.skip = int(width) % 4 * g.piece
		g.first = min(1+int(first)%g.piece, g.n)
		v := g.view(seed)
		before := bytes.Clone(v.buf)

		rng := rand.New(rand.NewSource(seed))
		payload := writePayload(&wire.WriteReq{Handle: handle, Offset: off, Data: body, Tenant: tenant})
		switch fault % 4 {
		case 1: // the length prefix claims more than the payload holds
			binary.LittleEndian.PutUint32(payload[16:], uint32(len(payload)-20+1+rng.Intn(1000)))
		case 2: // a body larger than any frame
			binary.LittleEndian.PutUint32(payload[16:], uint32(wire.MaxFrameSize+rng.Intn(1000)))
		case 3: // the tenant torn: cut short, or stray bytes where none is
			if tenant == "" {
				payload = append(payload, make([]byte, 1+rng.Intn(3))...)
			} else {
				payload = payload[:len(payload)-1-rng.Intn(len(tenant)+3)]
			}
		}
		stream := muxSegments(wire.MsgWriteReq, payload, rng)

		ma := wire.NewMuxReader(bytes.NewReader(stream))
		fa, errA := ma.Read()
		ma.Close()
		defer wire.PutBuf(fa.Buf)
		var l *viewLanding
		asked := 0
		ml := wire.NewMuxReader(bytes.NewReader(stream))
		ml.WriteDest = func(h, o uint64, n int) wire.WriteLanding {
			if asked++; h != handle || o != off || n != len(body) {
				t.Fatalf("WriteDest asked for %d bytes at %d:%d, want %d at %d:%d", n, h, o, len(body), handle, off)
			}
			if !grant {
				return nil
			}
			l = &viewLanding{landing: landing{dst: v}}
			return l
		}
		fl, errL := ml.Read()
		ml.Close()

		inView := make([]bool, len(v.buf))
		for i := 0; i < g.n; i++ {
			inView[g.at(i)] = true
		}
		for i := range v.buf {
			if !inView[i] && v.buf[i] != before[i] {
				t.Fatalf("byte %d outside the view %+v was written", i, g)
			}
		}
		if asked > 1 {
			t.Fatalf("WriteDest asked %d times", asked)
		}
		if (errA == nil) != (errL == nil) {
			t.Fatalf("assembled decode: %v, landed decode: %v", errA, errL)
		}
		if errL == nil && fault%4 != 0 {
			t.Fatalf("fault %d accepted", fault%4)
		}
		if l != nil {
			if want := map[bool]int{true: 1, false: 0}[errL != nil]; l.aborts != want {
				t.Fatalf("landing aborted %d times (decode error %v), want %d", l.aborts, errL, want)
			}
		}
		if errL != nil {
			return
		}
		wa, wl := fa.Msg.(*wire.WriteReq), fl.Msg.(*wire.WriteReq)
		if wl.Handle != wa.Handle || wl.Offset != wa.Offset || wl.Tenant != wa.Tenant {
			t.Fatalf("landed decode %d:%d %q, assembled %d:%d %q", wl.Handle, wl.Offset, wl.Tenant, wa.Handle, wa.Offset, wa.Tenant)
		}
		if l == nil {
			if wl.Lander != nil || !bytes.Equal(wl.Data, wa.Data) {
				t.Fatal("declined body not assembled as the buffered decode's")
			}
			return
		}
		if wl.Data != nil || wl.Lander != l || wl.Landed != len(wa.Data) {
			t.Fatalf("landed request delivered with %d bytes of Data, lander %v, Landed %d of %d", len(wl.Data), wl.Lander, wl.Landed, len(wa.Data))
		}
		was := gather(strided{buf: before, first: g.first, piece: g.piece, skip: g.skip, n: g.n})
		got := gather(v)
		k := min(g.n, len(wa.Data))
		if !bytes.Equal(got[:k], wa.Data[:k]) || !bytes.Equal(got[k:], was[k:]) {
			t.Fatalf("view %+v does not hold the body's first %d bytes and its own bytes after them", g, k)
		}
	})
}

// pacedNet dials connections whose reads trickle in: at most 16 KiB a Read,
// a millisecond apart.
type pacedNet struct{ transport.Network }

func (n pacedNet) Dial(addr string) (net.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return pacedConn{c}, nil
}

type pacedConn struct{ net.Conn }

func (c pacedConn) Read(p []byte) (int, error) {
	time.Sleep(time.Millisecond)
	return c.Conn.Read(p[:min(len(p), 16<<10)])
}

// Release abandons a read whose 1 MiB body is landing slowly, segment by
// segment, on a connection the pool shares. Once Release returns the read
// loop writes no more of the body into the caller's buffer — the test
// scribbles over it, which -race reports if a landing is still writing —
// and the rest goes to the discard sink, leaving the connection good for
// the next read on it.
func TestLandingReleaseMidBody(t *testing.T) {
	nw := pacedNet{transport.NewInproc()}
	ds, err := NewDataServer(DataConfig{Store: NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	data := seeded(1<<20, 12)
	if _, err := ds.Store().WriteAt(1, data, 0); err != nil {
		t.Fatal(err)
	}
	l, err := nw.Listen("data-0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, ds)
	srv.Start()
	defer srv.Close()
	p := NewPool(nw)
	defer p.Close()

	s, err := p.Stream("data-0")
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(data)) // differs from data at every byte
	for i := range dst {
		dst[i] = ^data[i]
	}
	if err := s.send(&wire.ReadReq{Handle: 1, Length: uint32(len(data))}, &landing{dst: contig(dst)}); err != nil {
		t.Fatal(err)
	}
	for p.wireStats.LandedBytes.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	s.Release()
	landed := 0 // segments land in order: the body's prefix
	for landed < len(dst) && dst[landed] == data[landed] {
		landed++
	}
	if landed == len(data) {
		t.Fatal("the whole body landed before Release returned; the pacing is too fast to test anything")
	}
	for i := range dst {
		dst[i] = 0x11
	}

	// The server writes one bulk frame at a time, so the next read's
	// response arrives after all of the abandoned one.
	next := &Stream{mc: s.mc}
	got := make([]byte, 4096)
	if err := next.send(&wire.ReadReq{Handle: 1, Offset: 4096, Length: 4096}, &landing{dst: contig(got)}); err != nil {
		t.Fatal(err)
	}
	resp, err := next.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if rr := resp.(*wire.ReadResp); rr.Landed != len(got) || !bytes.Equal(got, data[4096:8192]) {
		t.Fatalf("read after the abandoned one landed %d bytes, or the wrong ones", rr.Landed)
	}
	next.Release()
	if !bytes.Equal(dst, bytes.Repeat([]byte{0x11}, len(dst))) {
		t.Fatal("the abandoned body wrote into the caller's buffer after Release")
	}
	if now := p.wireStats.LandedBytes.Load(); now != int64(landed+len(got)) {
		t.Fatalf("landed_bytes went %d → %d across a %d-byte read: the abandoned body kept landing", landed, now, len(got))
	}
}

// A 4 MiB ReadAt on a width-2 file lands every byte in the caller's
// buffer: pool.wire.landed_bytes grows by 4 MiB and recv_copied_bytes
// stays 0. A ReadReq sent through Call has no landing; its 4 KiB body is
// assembled in a frame buffer and counted as copied.
func TestLandingPoolCounters(t *testing.T) {
	tc := startClusterWith(t, clusterOpts{nData: 2, tcp: true})
	f, err := tc.client.Create("wire/landed", 64<<10, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := seeded(4<<20, 13)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	counters := func() (landed, copied int64) {
		reg := tc.client.Pool().Metrics()
		return reg.Counter("pool.wire.landed_bytes").Value(), reg.Counter("pool.wire.recv_copied_bytes").Value()
	}
	l0, _ := counters()
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("landed read corrupted data")
	}
	landed, copied := counters()
	if landed-l0 != 4<<20 || copied != 0 {
		t.Errorf("4 MiB ReadAt: landed_bytes +%d, recv_copied_bytes = %d; want +%d and 0", landed-l0, copied, 4<<20)
	}
	addr, err := tc.client.DataAddr(f.Layout().Servers[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.client.Pool().Call(addr, &wire.ReadReq{Handle: ReplicaHandle(f.Handle(), 0), Length: 4096}); err != nil {
		t.Fatal(err)
	}
	if l, c := counters(); l != landed || c != 4096 {
		t.Errorf("4 KiB Call: landed_bytes %d → %d, recv_copied_bytes 0 → %d; want unchanged and 4096", landed, l, c)
	}
}
