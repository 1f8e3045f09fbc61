package transport

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestInprocDialListen(t *testing.T) {
	n := NewInproc()
	l, err := n.Listen("node-a")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := n.Dial("node-a")
		if err != nil {
			t.Error(err)
			return
		}
		c.Write([]byte("hi"))
		c.Close()
	}()
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hi" {
		t.Fatalf("got %q", buf)
	}
}

func TestInprocDialUnknownFails(t *testing.T) {
	n := NewInproc()
	if _, err := n.Dial("ghost"); err == nil {
		t.Fatal("expected error")
	}
}

func TestInprocDuplicateBindFails(t *testing.T) {
	n := NewInproc()
	l, err := n.Listen("dup")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := n.Listen("dup"); err == nil {
		t.Fatal("duplicate bind succeeded")
	}
}

func TestInprocCloseUnbinds(t *testing.T) {
	n := NewInproc()
	l, _ := n.Listen("x")
	l.Close()
	if _, err := n.Dial("x"); err == nil {
		t.Fatal("dial after close succeeded")
	}
	// Rebinding a closed address must work.
	l2, err := n.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
}

func TestInprocAutoName(t *testing.T) {
	n := NewInproc()
	l1, _ := n.Listen("")
	l2, _ := n.Listen("")
	if l1.Addr() == l2.Addr() || l1.Addr() == "" {
		t.Fatalf("auto names: %q, %q", l1.Addr(), l2.Addr())
	}
}

func TestAcceptAfterCloseFails(t *testing.T) {
	n := NewInproc()
	l, _ := n.Listen("y")
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	l.Close()
	if err := <-done; err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// A connection dialed but never accepted is hung up on when the listener
// closes — whether it was already queued or is being dialed at that very
// moment — so its dialer reads EOF instead of waiting for a peer forever.
func TestInprocCloseHangsUpOnBacklog(t *testing.T) {
	n := NewInproc()
	for i := 0; i < 200; i++ {
		l, _ := n.Listen("z")
		queued, err := n.Dial("z")
		if err != nil {
			t.Fatal(err)
		}
		raced := make(chan net.Conn, 1)
		go func() {
			c, _ := n.Dial("z") // fails or succeeds, depending on who wins
			raced <- c
		}()
		l.Close()
		for _, c := range []net.Conn{queued, <-raced} {
			if c == nil {
				continue
			}
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := c.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("round %d: read on a never-accepted connection = %v, want EOF", i, err)
			}
		}
	}
}

// Property: any byte sequence survives a pipe transfer, under any chunking.
func TestPipeDataIntegrityProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, int(n)%(3*pipeBufSize/2)+1)
		rng.Read(data)
		c, s := Pipe("t")
		go func() {
			rest := data
			for len(rest) > 0 {
				k := rng.Intn(len(rest)) + 1
				if _, err := c.Write(rest[:k]); err != nil {
					return
				}
				rest = rest[k:]
			}
			c.Close()
		}()
		got, err := io.ReadAll(s)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPipeBackpressure(t *testing.T) {
	c, s := Pipe("bp")
	big := make([]byte, pipeBufSize*2)
	wrote := make(chan struct{})
	go func() {
		c.Write(big)
		close(wrote)
	}()
	select {
	case <-wrote:
		t.Fatal("write of 2x buffer completed without a reader")
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := io.ReadFull(s, make([]byte, len(big))); err != nil {
		t.Fatal(err)
	}
	<-wrote
}

func TestPipeCloseGivesEOF(t *testing.T) {
	c, s := Pipe("eof")
	c.Write([]byte("tail"))
	c.Close()
	got, err := io.ReadAll(s)
	if err != nil || string(got) != "tail" {
		t.Fatalf("got %q, %v", got, err)
	}
	if _, err := s.Write([]byte("x")); err == nil {
		t.Fatal("write to closed peer succeeded")
	}
}

func TestPipeReadDeadline(t *testing.T) {
	_, s := Pipe("dl")
	s.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, err := s.Read(make([]byte, 1))
	if err != os.ErrDeadlineExceeded {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("deadline massively overshot")
	}
	// Clearing the deadline restores normal blocking reads.
	s.SetReadDeadline(time.Time{})
}

func TestShapedRateIsEnforced(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const rate = 4 << 20 // 4 MB/s
	n := NewShaped(NewInproc(), rate)
	l, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const payload = 2 << 20 // 2 MB → ≥ ~0.5 s at 4 MB/s
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		c.Write(make([]byte, payload))
		c.Close()
	}()
	c, err := n.Dial("server")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := io.ReadAll(c)
	if err != nil || len(got) != payload {
		t.Fatalf("read %d, %v", len(got), err)
	}
	elapsed := time.Since(start).Seconds()
	ideal := float64(payload) / rate
	if elapsed < ideal*0.6 {
		t.Errorf("transfer took %.3fs, faster than the %.3fs the shaper should allow", elapsed, ideal)
	}
	if elapsed > ideal*3 {
		t.Errorf("transfer took %.3fs, far slower than ideal %.3fs", elapsed, ideal)
	}
}

func TestShapedLinkIsSharedAcrossConns(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const rate = 8 << 20
	const payload = 1 << 20
	const clients = 4
	n := NewShaped(NewInproc(), rate)
	l, err := n.Listen("shared")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				c.Write(make([]byte, payload))
				c.Close()
			}(c)
		}
	}()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := n.Dial("shared")
			if err != nil {
				t.Error(err)
				return
			}
			io.ReadAll(c)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	// 4 MB total through an 8 MB/s shared link ≥ ~0.5 s. If each conn had
	// its own bucket it would finish in ~0.125 s.
	if elapsed < 0.3 {
		t.Errorf("4 clients finished in %.3fs: the link bucket is not shared", elapsed)
	}
}

func TestTCPTransport(t *testing.T) {
	var n TCP
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		io.Copy(c, c)
		c.Close()
	}()
	c, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := []byte("echo me")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("got %q", buf)
	}
}
