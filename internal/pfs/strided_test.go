package pfs

import (
	"bytes"
	"testing"

	"dosas/internal/wire"
)

// A view's slices, gathers and scatters agree with doing the same by
// hand: pieces of 4 after a first piece of 3, 6 bytes of other servers'
// data between them.
func TestStridedSliceGatherScatter(t *testing.T) {
	buf := make([]byte, 40)
	for i := range buf {
		buf[i] = byte(i)
	}
	v := strided{buf: buf[1:], first: 3, piece: 4, skip: 6, n: 13}
	want := []byte{1, 2, 3, 10, 11, 12, 13, 20, 21, 22, 23, 30, 31}
	if got := gather(v); !bytes.Equal(got, want) {
		t.Fatalf("gather = %v, want %v", got, want)
	}
	for at := 0; at <= v.n; at++ {
		for n := 0; at+n <= v.n; n++ {
			if got := gather(v.slice(at, n)); !bytes.Equal(got, want[at:at+n]) {
				t.Fatalf("slice(%d, %d) gathers %v, want %v", at, n, got, want[at:at+n])
			}
		}
	}
	v.slice(2, 7).copyFrom([]byte{103, 110, 111, 112, 113, 120, 121})
	v.slice(11, 2).clear()
	for i, b := range buf {
		w := byte(i)
		switch {
		case i == 3 || i >= 10 && i <= 13 || i == 20 || i == 21:
			w += 100
		case i == 30 || i == 31:
			w = 0
		}
		if b != w {
			t.Fatalf("buf[%d] = %d after scatter and clear, want %d", i, b, w)
		}
	}
	if got := gather(contig(buf[:5]).slice(5, 0)); len(got) != 0 {
		t.Fatalf("empty slice at a contiguous view's end gathers %v", got)
	}
}

// A WriteReq sent from a strided view is the frame a contiguous Data of
// the same bytes makes (here below vectoredMin: the inline encode; the
// by-reference writers are in byref_test.go).
func TestWriteReqGatherByteIdentity(t *testing.T) {
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = byte(i * 3)
	}
	src := strided{buf: buf, first: 5, piece: 8, skip: 8, n: 29}
	var gathered, plain bytes.Buffer
	if err := wire.WriteMessage(&gathered, &wire.WriteReq{Handle: 4, Offset: 99, Payload: src, Tenant: "t"}); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteMessage(&plain, &wire.WriteReq{Handle: 4, Offset: 99, Data: gather(src), Tenant: "t"}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gathered.Bytes(), plain.Bytes()) {
		t.Fatal("WriteReq frame from a view differs from the contiguous one")
	}
}

// gather copies a view's bytes out, piece by piece.
func gather(v strided) []byte {
	var out []byte
	v.pieces(func(p []byte) { out = append(out, p...) })
	return out
}
