package pfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dosas/internal/wire"
)

// TestExtentStoreCrossValidation drives random op sequences against an
// ExtentStore and a MemStore model in lockstep, including crash-reopens
// of the extent store (Close + NewExtentStore on the same directory).
// The one modelled divergence: Truncate past the end extends the extent
// store with zeros (POSIX ftruncate, matching FileStore) while MemStore
// only shrinks — the model emulates the extension with a zero write.
func TestExtentStoreCrossValidation(t *testing.T) {
	dir := t.TempDir()
	es, err := NewExtentStore(ExtentConfig{Dir: dir, ExtentSize: 512, FDCacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { es.Close() }()
	model := NewMemStore()

	modelTruncate := func(h, size uint64) {
		if size > model.Size(h) {
			if model.Size(h) == 0 {
				// Absent stream: extent store's Truncate is a no-op
				// there too only when the handle has never been
				// written; track that by only extending existing
				// streams, mirroring extent semantics.
				if es.Size(h) == 0 {
					return
				}
			}
			model.WriteAt(h, []byte{0}, size-1)
			return
		}
		model.Truncate(h, size)
	}

	rng := rand.New(rand.NewSource(42))
	handles := []uint64{1, 2, 3, 7, 1 << 40}
	const ops = 2000
	for i := 0; i < ops; i++ {
		h := handles[rng.Intn(len(handles))]
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // write
			n := rng.Intn(2000)
			off := uint64(rng.Intn(4000))
			data := make([]byte, n)
			rng.Read(data)
			wn, werr := es.WriteAt(h, data, off)
			mn, merr := model.WriteAt(h, data, off)
			if wn != mn || (werr == nil) != (merr == nil) {
				t.Fatalf("op %d: WriteAt(%d, %d bytes, %d) = (%d,%v) vs model (%d,%v)",
					i, h, n, off, wn, werr, mn, merr)
			}
		case 4, 5, 6: // read
			n := rng.Intn(3000)
			off := uint64(rng.Intn(5000))
			a := make([]byte, n)
			b := make([]byte, n)
			an, aerr := es.ReadAt(h, a, off)
			bn, berr := model.ReadAt(h, b, off)
			if aerr != nil || berr != nil {
				t.Fatalf("op %d: read errs %v, %v", i, aerr, berr)
			}
			// Stores may differ in short-read counts only past the end;
			// compare the overlap and require the same data visibility.
			if an != bn {
				t.Fatalf("op %d: ReadAt(%d, %d, %d) = %d vs model %d (size %d vs %d)",
					i, h, n, off, an, bn, es.Size(h), model.Size(h))
			}
			if !bytes.Equal(a[:an], b[:bn]) {
				t.Fatalf("op %d: ReadAt(%d, %d, %d) content mismatch", i, h, n, off)
			}
		case 7: // truncate
			size := uint64(rng.Intn(6000))
			if err := es.Truncate(h, size); err != nil {
				t.Fatalf("op %d: truncate: %v", i, err)
			}
			modelTruncate(h, size)
		case 8: // remove
			if err := es.Remove(h); err != nil {
				t.Fatalf("op %d: remove: %v", i, err)
			}
			model.Remove(h)
		case 9: // crash-reopen every so often
			if rng.Intn(4) != 0 {
				continue
			}
			if err := es.Close(); err != nil {
				t.Fatalf("op %d: close: %v", i, err)
			}
			es, err = NewExtentStore(ExtentConfig{Dir: dir, ExtentSize: 512, FDCacheSize: 8})
			if err != nil {
				t.Fatalf("op %d: reopen: %v", i, err)
			}
		}
		if got, want := es.Size(h), model.Size(h); got != want {
			t.Fatalf("op %d: Size(%d) = %d, model %d", i, h, got, want)
		}
	}

	// Full-content sweep at the end.
	for _, h := range handles {
		size := model.Size(h)
		a := make([]byte, size)
		b := make([]byte, size)
		es.ReadAt(h, a, 0)
		model.ReadAt(h, b, 0)
		if !bytes.Equal(a, b) {
			t.Fatalf("final sweep: handle %d content mismatch", h)
		}
	}
}

// TestExtentStoreRestartDurability writes across several extents, closes,
// reopens, and expects byte-identical content and sizes — no journal, the
// size comes back from the directory scan.
func TestExtentStoreRestartDurability(t *testing.T) {
	dir := t.TempDir()
	es, err := NewExtentStore(ExtentConfig{Dir: dir, ExtentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 10_000)
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := es.WriteAt(5, data, 100); err != nil {
		t.Fatal(err)
	}
	// A sparse handle: write far past extent 0 so earlier extents are holes.
	if _, err := es.WriteAt(6, []byte("tail"), 9000); err != nil {
		t.Fatal(err)
	}
	if err := es.Close(); err != nil {
		t.Fatal(err)
	}

	es2, err := NewExtentStore(ExtentConfig{Dir: dir, ExtentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer es2.Close()
	if got := es2.Size(5); got != 10_100 {
		t.Fatalf("size(5) after reopen = %d, want 10100", got)
	}
	if got := es2.Size(6); got != 9004 {
		t.Fatalf("size(6) after reopen = %d, want 9004", got)
	}
	back := make([]byte, len(data))
	if _, err := es2.ReadAt(5, back, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("content changed across restart")
	}
	hole := make([]byte, 9000)
	if _, err := es2.ReadAt(6, hole, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hole, make([]byte, 9000)) {
		t.Fatal("sparse prefix not zeros after reopen")
	}
}

// WriteAt makes a stream's directory only while the size cache holds no
// bytes for it: a removed handle is written again into a new directory, an
// emptied one into its old one, and a live one with no mkdir at all.
func TestExtentStoreRewriteAfterRemove(t *testing.T) {
	es, err := NewExtentStore(ExtentConfig{Dir: t.TempDir(), ExtentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	check := func(what string, want []byte) {
		t.Helper()
		got := make([]byte, len(want)+10)
		n, err := es.ReadAt(3, got, 0)
		if err != nil || n != len(want) || !bytes.Equal(got[:n], want) || es.Size(3) != uint64(len(want)) {
			t.Fatalf("%s: read %d bytes (%v) of a %d-byte stream, want %d identical", what, n, err, es.Size(3), len(want))
		}
	}
	first := seeded(3000, 1)
	if _, err := es.WriteAt(3, first, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := es.WriteAt(3, first[:100], 0); err != nil { // a live stream: no mkdir needed
		t.Fatal(err)
	}
	check("first write", first)
	if err := es.Remove(3); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(es.handleDir(3)); !os.IsNotExist(err) {
		t.Fatalf("handle directory after Remove: %v", err)
	}
	second := seeded(2500, 2)
	if _, err := es.WriteAt(3, second, 0); err != nil {
		t.Fatalf("write after Remove: %v", err)
	}
	check("after Remove", second)
	if err := es.Truncate(3, 0); err != nil {
		t.Fatal(err)
	}
	third := seeded(700, 3)
	if _, err := es.WriteAt(3, third, 0); err != nil {
		t.Fatalf("write after a truncate to 0: %v", err)
	}
	check("after a truncate to 0", third)
}

// TestExtentStorePinnedExtentSize: extent.conf pins the geometry; a
// reopen asking for a different size keeps the on-disk one.
func TestExtentStorePinnedExtentSize(t *testing.T) {
	dir := t.TempDir()
	es, err := NewExtentStore(ExtentConfig{Dir: dir, ExtentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	es.WriteAt(1, []byte("x"), 5000)
	es.Close()

	es2, err := NewExtentStore(ExtentConfig{Dir: dir, ExtentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer es2.Close()
	if got := es2.ExtentSize(); got != 2048 {
		t.Fatalf("reopen extent size = %d, want pinned 2048", got)
	}
	if got := es2.Size(1); got != 5001 {
		t.Fatalf("size = %d, want 5001", got)
	}
}

// TestExtentStoreReadRange: payloads serve exact ranges, represent holes
// without opening files, and keep working when the fd cache is tiny.
func TestExtentStoreReadRange(t *testing.T) {
	es, err := NewExtentStore(ExtentConfig{Dir: t.TempDir(), ExtentSize: 256, FDCacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()

	data := make([]byte, 4096)
	rand.New(rand.NewSource(2)).Read(data)
	es.WriteAt(9, data, 0)
	es.WriteAt(9, []byte{0xFF}, 8191) // extends with a hole in the middle

	full := append(append(append([]byte{}, data...), make([]byte, 8191-4096)...), 0xFF)
	for _, r := range [][2]uint64{{0, 100}, {200, 300}, {250, 12}, {0, 8192}, {4000, 1000}, {8000, 192}} {
		p, err := es.ReadRange(9, r[0], r[1])
		if err != nil {
			t.Fatalf("ReadRange%v: %v", r, err)
		}
		if p.Len() != int64(r[1]) {
			t.Fatalf("ReadRange%v: len %d", r, p.Len())
		}
		var buf bytes.Buffer
		if err := p.WriteRange(&buf, 0, int64(r[1]), nil); err != nil {
			t.Fatalf("ReadRange%v write: %v", r, err)
		}
		if !bytes.Equal(buf.Bytes(), full[r[0]:r[0]+r[1]]) {
			t.Fatalf("ReadRange%v: content mismatch", r)
		}
		p.Close()
	}

	// Past-end ranges are refused.
	if _, err := es.ReadRange(9, 8000, 1000); err == nil {
		t.Fatal("ReadRange past end accepted")
	}

	// A payload pins its descriptors: truncating the stream under a live
	// payload must not corrupt the frame — the missing bytes read as
	// zeros, keeping the announced length.
	p, err := es.ReadRange(9, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := es.Truncate(9, 10); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteRange(&buf, 0, 4096, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 4096 {
		t.Fatalf("post-truncate payload wrote %d bytes, want 4096", buf.Len())
	}
	if !bytes.Equal(buf.Bytes()[:10], data[:10]) {
		t.Fatal("surviving prefix corrupted")
	}
	p.Close()
}

// TestFDCacheEviction: the store keeps at most FDCacheSize descriptors
// open across many handles, and evicted handles still read correctly.
func TestFDCacheEviction(t *testing.T) {
	es, err := NewExtentStore(ExtentConfig{Dir: t.TempDir(), ExtentSize: 64, FDCacheSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()

	const handles = 32
	for h := uint64(0); h < handles; h++ {
		payload := []byte(fmt.Sprintf("handle-%d-content", h))
		if _, err := es.WriteAt(h, payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := es.fds.len(); got > 4 {
		t.Fatalf("fd cache holds %d entries, cap 4", got)
	}
	for h := uint64(0); h < handles; h++ {
		want := []byte(fmt.Sprintf("handle-%d-content", h))
		got := make([]byte, len(want))
		if _, err := es.ReadAt(h, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("handle %d read %q after eviction churn", h, got)
		}
	}
	if got := es.fds.len(); got > 4 {
		t.Fatalf("fd cache holds %d entries after reads, cap 4", got)
	}
}

// TestFileStoreFDCacheEviction: same bound for the one-file-per-handle
// layout.
func TestFileStoreFDCacheEviction(t *testing.T) {
	fs, err := NewFileStoreConfig(FileStoreConfig{Dir: t.TempDir(), FDCacheSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for h := uint64(0); h < 20; h++ {
		if _, err := fs.WriteAt(h, []byte{byte(h)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.fds.len(); got > 3 {
		t.Fatalf("fd cache holds %d entries, cap 3", got)
	}
	for h := uint64(0); h < 20; h++ {
		b := make([]byte, 1)
		if _, err := fs.ReadAt(h, b, 0); err != nil || b[0] != byte(h) {
			t.Fatalf("handle %d: %v %v", h, b, err)
		}
	}
}

// TestExtentStoreWirePayloadThroughFraming: end-to-end at the wire layer —
// a ReadRange payload inside a ReadResp produces a frame whose decoded
// data matches the store content, under both framings.
func TestExtentStoreWirePayloadThroughFraming(t *testing.T) {
	es, err := NewExtentStore(ExtentConfig{Dir: t.TempDir(), ExtentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	data := make([]byte, 100_000)
	rand.New(rand.NewSource(3)).Read(data)
	es.WriteAt(1, data, 0)

	p, err := es.ReadRange(1, 0, uint64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if err := wire.WriteMessageOpts(&frame, &wire.ReadResp{Payload: p, EOF: true}, wire.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	m, err := wire.ReadMessage(bytes.NewReader(frame.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rr := m.(*wire.ReadResp)
	if !bytes.Equal(rr.Data, data) || !rr.EOF {
		t.Fatal("decoded frame does not match store content")
	}
}

// TestExtentStoreRejectsCorruptConf: a mangled extent.conf fails loudly
// rather than silently picking a new geometry over existing extents.
func TestExtentStoreRejectsCorruptConf(t *testing.T) {
	dir := t.TempDir()
	es, err := NewExtentStore(ExtentConfig{Dir: dir, ExtentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	es.WriteAt(1, []byte("x"), 0)
	es.Close()
	if err := os.WriteFile(filepath.Join(dir, "extent.conf"), []byte("not-a-number\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewExtentStore(ExtentConfig{Dir: dir, ExtentSize: 512}); err == nil {
		t.Fatal("corrupt extent.conf accepted")
	}
}
