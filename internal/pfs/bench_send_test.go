package pfs

import (
	"fmt"
	"io"
	"net"
	"testing"

	"dosas/internal/wire"
)

// BenchmarkReadRespSend times a ReadResp leaving over TCP loopback, in each
// of the ways a plain read's body can leave an extent store, on resident
// pages (the file was just written):
//   - mapped: the extent file's read-only mapping, one writev per mux
//     segment (what DataServer.read serves);
//   - sendfile: a FilePayload (ExtentStore.ReadRange), a writev of the
//     segment header, a sendfile of its body and, on the last, a write of
//     the tail;
//   - staged: ReadAt into a pooled buffer, encoded into the frame (the copy
//     path).
//
// A goroutine drains the other end. MB/s counts body bytes; writev/op and
// sendfile-B/op are the writer's FrameStats per response.
func BenchmarkReadRespSend(b *testing.B) {
	const fileSize = 8 << 20
	es, err := NewExtentStore(ExtentConfig{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer es.Close()
	if _, err := es.WriteAt(1, seeded(fileSize, 1), 0); err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{64 << 10, 256 << 10, 2 << 20} {
		for _, mode := range []string{"mapped", "sendfile", "staged"} {
			b.Run(fmt.Sprintf("size=%dKiB/mode=%s", size>>10, mode), func(b *testing.B) {
				benchSend(b, es, size, mode)
			})
		}
	}
}

func benchSend(b *testing.B, es *ExtentStore, size int, mode string) {
	if mode == "mapped" {
		p := es.mappedRange(1, 0, uint64(size))
		if p == nil {
			b.Skip("extent files cannot be mapped on this platform")
		}
		p.Close()
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	w, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	r, err := l.Accept()
	if err != nil {
		b.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		io.Copy(io.Discard, r)
		close(drained)
	}()
	var st wire.FrameStats
	mw := wire.NewMuxWriter(w, wire.DefaultMuxSegment)
	mw.Stats = &st
	sent := make(chan error, 1)
	chunks := es.Size(1) / uint64(size)

	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(i) % chunks * uint64(size)
		resp := &wire.ReadResp{}
		var buf []byte
		switch mode {
		case "mapped":
			resp.Payload = es.mappedRange(1, off, uint64(size))
		case "sendfile":
			if resp.Payload, err = es.ReadRange(1, off, uint64(size)); err != nil {
				b.Fatal(err)
			}
		case "staged":
			buf = wire.GetBuf(size)
			n, err := es.ReadAt(1, buf, off)
			if err != nil {
				b.Fatal(err)
			}
			resp.Data = buf[:n]
		}
		if err := mw.Enqueue(resp, 1, func(err error) { sent <- err }); err != nil {
			b.Fatal(err)
		}
		if err := <-sent; err != nil {
			b.Fatal(err)
		}
		if resp.Payload != nil {
			resp.Payload.Close()
		}
		if buf != nil {
			wire.PutBuf(buf)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(st.WritevCalls.Load())/float64(b.N), "writev/op")
	b.ReportMetric(float64(st.SendfileBytes.Load())/float64(b.N), "sendfile-B/op")
	mw.Close()
	w.Close()
	<-drained
	r.Close()
}
