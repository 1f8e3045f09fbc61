package pfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"dosas/internal/wire"
)

// Store is a data server's backing object store: one sparse byte stream per
// file handle (the concatenation of the stripes this server owns, in
// server-local order). Implementations must be safe for concurrent use.
//
// Disk-backed stores additionally implement RangeReader, the extension
// behind the zero-copy read path.
type Store interface {
	// ReadAt fills p from the stream at off. Bytes beyond the stream end
	// are reported by a short count; holes read as zeros.
	ReadAt(handle uint64, p []byte, off uint64) (int, error)
	// WriteAt stores p at off, extending the stream as needed.
	WriteAt(handle uint64, p []byte, off uint64) (int, error)
	// Size returns the current stream length for handle (0 if absent).
	Size(handle uint64) uint64
	// Truncate cuts the stream to size bytes.
	Truncate(handle uint64, size uint64) error
	// Remove deletes the stream entirely.
	Remove(handle uint64) error
	// Close releases resources.
	Close() error
}

// RangeReader is the optional Store extension for serving bulk reads by
// reference: instead of staging the bytes through a buffer, the store
// hands back a wire.Payload describing where they live (extent files,
// holes), which the framing layer then moves with sendfile/writev. A
// store without it — MemStore — keeps the pooled-buffer path.
type RangeReader interface {
	// ReadRange returns a payload serving exactly n bytes of handle's
	// stream at off; off+n must not exceed Size at call time (the
	// payload zero-fills if the stream shrinks afterwards, keeping its
	// announced length). The caller must Close the payload once the
	// frame is written — it pins fd-cache references until then.
	ReadRange(handle uint64, off, n uint64) (wire.Payload, error)
}

// View is a range of a stream lent to a reader by ReadView: either bytes of
// a mapped extent file in place, or the bytes ReadAt copied into the
// reader's buffer. The bytes are read-only and valid until Release.
type View struct {
	b []byte
	e *fdEntry // pinned extent entry of an in-place view; nil for a copy
	c *fdCache
}

// Bytes returns the view's bytes; empty at or past the stream end.
func (v View) Bytes() []byte { return v.b }

// Release unpins an in-place view's extent file; a no-op for a copy.
func (v View) Release() {
	if v.e != nil {
		v.c.release(v.e)
	}
}

// ReadView returns the bytes of handle's stream from off on: at most
// len(buf) of them, fewer at the stream end or — on an ExtentStore — at the
// end of off's extent, so a loop over a range cuts it at extent
// boundaries. When the range lies inside one extent file that can be
// mapped and is long enough, the view is that file's page cache in place
// and nothing is copied; in every other case (holes, a missing or short
// extent file, other stores, builds without mmap) it is ReadAt into buf.
// The bytes are identical either way.
//
// An in-place view can fault if the extent file is cut under it (a
// concurrent Truncate); readers that touch one run under
// debug.SetPanicOnFault and treat the fault as truncated input.
func ReadView(s Store, handle uint64, buf []byte, off uint64) (View, error) {
	if es, ok := s.(*ExtentStore); ok {
		return es.readView(handle, buf, off)
	}
	n, err := s.ReadAt(handle, buf, off)
	return View{b: buf[:n]}, err
}

// MemStore keeps streams in memory. It is the default for tests, examples,
// and benchmarks where durability is irrelevant.
type MemStore struct {
	mu      sync.RWMutex
	streams map[uint64][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{streams: make(map[uint64][]byte)}
}

// ReadAt implements Store.
func (s *MemStore) ReadAt(handle uint64, p []byte, off uint64) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data := s.streams[handle]
	if off >= uint64(len(data)) {
		return 0, nil
	}
	return copy(p, data[off:]), nil
}

// WriteAt implements Store.
func (s *MemStore) WriteAt(handle uint64, p []byte, off uint64) (int, error) {
	if len(p) == 0 {
		return 0, nil // zero-length writes do not extend (POSIX pwrite)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	data := s.streams[handle]
	end := off + uint64(len(p))
	if end > uint64(len(data)) {
		grown := make([]byte, end)
		copy(grown, data)
		data = grown
	}
	copy(data[off:], p)
	s.streams[handle] = data
	return len(p), nil
}

// Size implements Store.
func (s *MemStore) Size(handle uint64) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return uint64(len(s.streams[handle]))
}

// Truncate implements Store.
func (s *MemStore) Truncate(handle uint64, size uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.streams[handle]
	if !ok {
		return nil
	}
	if size < uint64(len(data)) {
		s.streams[handle] = data[:size:size]
	}
	return nil
}

// Remove implements Store.
func (s *MemStore) Remove(handle uint64) error {
	s.mu.Lock()
	delete(s.streams, handle)
	s.mu.Unlock()
	return nil
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }

// FileStore keeps each handle's stream in one file under a directory,
// giving a data server durability across restarts. Open descriptors are
// held in a capped LRU (see fdCache), so a long-lived server touching
// many handles stays under its rlimit. ExtentStore is the preferred
// disk backend — it also serves zero-copy payloads — but FileStore's
// one-file-per-handle layout remains both as the v0 format and as the
// bench baseline the zero-copy path is measured against.
type FileStore struct {
	dir  string
	sync bool
	fds  *fdCache
}

// FileStoreConfig configures a FileStore.
type FileStoreConfig struct {
	// Dir roots the store; created if needed.
	Dir string
	// FDCacheSize caps lazily opened descriptors (default
	// DefaultFDCacheSize).
	FDCacheSize int
	// Sync fsyncs the backing file after every write. Off by default:
	// the page cache absorbs write bursts and the paper's workloads are
	// re-runnable; turn it on (-fsync) for durability-sensitive runs.
	Sync bool
}

// NewFileStore opens (creating if needed) a store rooted at dir with
// default options.
func NewFileStore(dir string) (*FileStore, error) {
	return NewFileStoreConfig(FileStoreConfig{Dir: dir})
}

// NewFileStoreConfig opens (creating if needed) a store per cfg.
func NewFileStoreConfig(cfg FileStoreConfig) (*FileStore, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("pfs: filestore: %w", err)
	}
	return &FileStore{dir: cfg.Dir, sync: cfg.Sync, fds: newFDCache(cfg.FDCacheSize)}, nil
}

func (s *FileStore) path(handle uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("h%016x.dat", handle))
}

// file acquires the cached descriptor for handle, opening or creating
// it. The caller must release the returned entry.
func (s *FileStore) file(handle uint64, create bool) (*fdEntry, error) {
	return s.fds.acquire(fdKey{handle: handle}, func() (*os.File, error) {
		flags := os.O_RDWR
		if create {
			flags |= os.O_CREATE
		}
		return os.OpenFile(s.path(handle), flags, 0o644)
	})
}

// ReadAt implements Store.
func (s *FileStore) ReadAt(handle uint64, p []byte, off uint64) (int, error) {
	e, err := s.file(handle, false)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer s.fds.release(e)
	n, err := e.f.ReadAt(p, int64(off))
	if errors.Is(err, io.EOF) {
		// Short read at end of stream is not an error at this layer.
		return n, nil
	}
	return n, err
}

// WriteAt implements Store.
func (s *FileStore) WriteAt(handle uint64, p []byte, off uint64) (int, error) {
	e, err := s.file(handle, true)
	if err != nil {
		return 0, err
	}
	defer s.fds.release(e)
	n, err := e.f.WriteAt(p, int64(off))
	if err == nil && s.sync {
		err = e.f.Sync()
	}
	return n, err
}

// Size implements Store.
func (s *FileStore) Size(handle uint64) uint64 {
	e, err := s.file(handle, false)
	if err != nil {
		return 0
	}
	defer s.fds.release(e)
	fi, err := e.f.Stat()
	if err != nil {
		return 0
	}
	return uint64(fi.Size())
}

// Truncate implements Store.
func (s *FileStore) Truncate(handle uint64, size uint64) error {
	e, err := s.file(handle, false)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer s.fds.release(e)
	if err := e.f.Truncate(int64(size)); err != nil {
		return err
	}
	if s.sync {
		return e.f.Sync()
	}
	return nil
}

// Remove implements Store.
func (s *FileStore) Remove(handle uint64) error {
	s.fds.invalidate(fdKey{handle: handle})
	err := os.Remove(s.path(handle))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Close implements Store.
func (s *FileStore) Close() error { return s.fds.closeAll() }
