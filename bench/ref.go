package main

import (
	"io"
	"net"
	"os"
	"sync"
)

// rawRef is a workload's reference load: request/response exchanges of
// the primary operation's shape over plain loopback TCP connections, one
// per client, against an echo server in this process. It shares the
// machine, the kernel's TCP path and the moment with the load it is
// compared with, and none of the program's code.
type rawRef struct {
	l       net.Listener
	conns   []net.Conn
	req     int
	resp    int
	serving sync.WaitGroup
}

// newRawRef starts the echo server and dials one connection per client;
// every exchange sends req bytes and receives resp bytes. With fromFile
// set, the server sends its responses out of a file under dir, so they
// leave the page cache by sendfile(2) as the program's bulk reads do,
// instead of being copied out of a buffer.
func newRawRef(clients, req, resp int, fromFile string) (*rawRef, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &rawRef{l: l, req: req, resp: resp}
	if fromFile != "" {
		if err := os.WriteFile(fromFile, make([]byte, resp), 0o644); err != nil {
			l.Close()
			return nil, err
		}
	}
	r.serving.Add(1)
	go func() {
		defer r.serving.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			r.serving.Add(1)
			go func() {
				defer r.serving.Done()
				if fromFile != "" {
					echoFile(c, req, fromFile, int64(resp))
				} else {
					echo(c, req, resp)
				}
			}()
		}
	}()
	for i := 0; i < clients; i++ {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			r.close()
			return nil, err
		}
		r.conns = append(r.conns, c)
	}
	return r, nil
}

// streams returns the first n connections as load streams.
func (r *rawRef) streams(n int) []stream {
	out := make([]stream, 0, n)
	for _, c := range r.conns[:min(n, len(r.conns))] {
		out = append(out, &rawStream{c: c, out: make([]byte, r.req), in: make([]byte, r.resp)})
	}
	return out
}

// close hangs up and waits for the echo server's goroutines to end.
func (r *rawRef) close() {
	r.l.Close()
	for _, c := range r.conns {
		c.Close()
	}
	r.serving.Wait()
}

// echoFile is echo with the reply-byte response sent from the start of
// the file at path: net.TCPConn.ReadFrom moves an *os.File by
// sendfile(2), from the file's own offset, so each connection opens its
// own descriptor.
func echoFile(conn net.Conn, size int, path string, reply int64) {
	defer conn.Close()
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	in := make([]byte, size)
	for {
		if _, err := io.ReadFull(conn, in); err != nil {
			return
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return
		}
		if _, err := io.Copy(conn, io.LimitReader(f, reply)); err != nil {
			return
		}
	}
}

type rawStream struct {
	c       net.Conn
	out, in []byte
}

func (s *rawStream) step(bool) (uint8, error) {
	if _, err := s.c.Write(s.out); err != nil {
		return 0, err
	}
	_, err := io.ReadFull(s.c, s.in)
	return 0, err
}
