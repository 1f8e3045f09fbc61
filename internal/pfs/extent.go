package pfs

// ExtentStore: the disk backend behind the zero-copy read path. Each
// handle's stream is cut into fixed-size extents, one file per extent:
//
//	<dir>/extent.conf            extent size, pinned at first creation
//	<dir>/h<%016x>/e<%08x>.ext   extent files, sparse, ≤ extent size
//
// The layout is chosen for the serving path, not the write path: a bulk
// read maps to one or two extent files — views of their mappings for a
// mapped send, or (file, offset, length) sections for sendfile — while
// keeping every descriptor small enough that the capped fd cache covers a
// node's working set. Holes are represented twice over: an extent file
// missing entirely, or a file shorter than the data logically above it;
// both read as zeros.
//
// Stream size is not stored separately. Invariant: the highest-numbered
// extent file ends exactly where the stream does, so
//
//	size = lastIdx*extentSize + len(last extent file)
//
// WriteAt maintains it for free (pwrite extends the touched file);
// Truncate re-establishes it by deleting later extents and truncating
// the boundary extent to the exact local length (sparse-extending it
// when the truncate grows the stream, matching FileStore semantics).
// Reopening a directory after a crash or restart just rescans — there
// is no journal to replay and no metadata to trust.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"dosas/internal/wire"
)

// DefaultExtentSize is the extent size new stores are created with:
// large enough that a windowed 4 MiB chunk read usually stays within
// one extent (one mapping), small enough that sparse streams
// don't concentrate into jumbo files.
const DefaultExtentSize int64 = 16 << 20

// extentConfName pins the store's extent size across restarts — mixing
// sizes over one directory would silently shear every stream.
const extentConfName = "extent.conf"

// ExtentConfig configures an ExtentStore.
type ExtentConfig struct {
	// Dir roots the store; created if needed.
	Dir string
	// ExtentSize is used when creating a fresh directory (default
	// DefaultExtentSize). Reopening an existing store always uses the
	// size recorded in its extent.conf.
	ExtentSize int64
	// FDCacheSize caps open extent descriptors (default
	// DefaultFDCacheSize).
	FDCacheSize int
	// Sync fsyncs extent files after every write/truncate. Off by
	// default; see FileStoreConfig.Sync.
	Sync bool
}

// ExtentStore implements Store and RangeReader over a directory of
// extent files, and lends mapped extent bytes to kernels (ReadView) and to
// the data server's sends (mappedRange).
type ExtentStore struct {
	dir  string
	ext  int64
	sync bool
	fds  *fdCache

	mu    sync.Mutex
	sizes map[uint64]int64 // stream sizes; scanned on first touch
}

// NewExtentStore opens (creating if needed) an extent store per cfg.
func NewExtentStore(cfg ExtentConfig) (*ExtentStore, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("pfs: extentstore: %w", err)
	}
	ext := cfg.ExtentSize
	if ext <= 0 {
		ext = DefaultExtentSize
	}
	confPath := filepath.Join(cfg.Dir, extentConfName)
	if raw, err := os.ReadFile(confPath); err == nil {
		v, perr := strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64)
		if perr != nil || v <= 0 {
			return nil, fmt.Errorf("pfs: extentstore: bad %s: %q", extentConfName, raw)
		}
		ext = v
	} else if os.IsNotExist(err) {
		if werr := os.WriteFile(confPath, []byte(strconv.FormatInt(ext, 10)+"\n"), 0o644); werr != nil {
			return nil, fmt.Errorf("pfs: extentstore: %w", werr)
		}
	} else {
		return nil, fmt.Errorf("pfs: extentstore: %w", err)
	}
	return &ExtentStore{
		dir: cfg.Dir, ext: ext, sync: cfg.Sync,
		fds:   newFDCache(cfg.FDCacheSize),
		sizes: make(map[uint64]int64),
	}, nil
}

// ExtentSize returns the store's extent size (tests, tools).
func (s *ExtentStore) ExtentSize() int64 { return s.ext }

func (s *ExtentStore) handleDir(handle uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("h%016x", handle))
}

func (s *ExtentStore) extentPath(handle uint64, idx int64) string {
	return filepath.Join(s.handleDir(handle), fmt.Sprintf("e%08x.ext", idx))
}

// extent acquires the cached descriptor for one extent file. The caller
// must release the entry.
func (s *ExtentStore) extent(handle uint64, idx int64, create bool) (*fdEntry, error) {
	return s.fds.acquire(fdKey{handle: handle, ext: uint32(idx)}, func() (*os.File, error) {
		flags := os.O_RDWR
		if create {
			flags |= os.O_CREATE
		}
		return os.OpenFile(s.extentPath(handle, idx), flags, 0o644)
	})
}

// parseExtentName returns the index encoded in an extent file name, or
// -1 for foreign files.
func parseExtentName(name string) int64 {
	hexa, ok := strings.CutPrefix(name, "e")
	if !ok {
		return -1
	}
	hexa, ok = strings.CutSuffix(hexa, ".ext")
	if !ok {
		return -1
	}
	v, err := strconv.ParseInt(hexa, 16, 64)
	if err != nil || v < 0 {
		return -1
	}
	return v
}

// scanSize derives handle's stream size from the directory: the end of
// the highest-numbered extent file (the layout invariant).
func (s *ExtentStore) scanSize(handle uint64) (int64, error) {
	ents, err := os.ReadDir(s.handleDir(handle))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	last := int64(-1)
	lastName := ""
	for _, ent := range ents {
		if idx := parseExtentName(ent.Name()); idx > last {
			last, lastName = idx, ent.Name()
		}
	}
	if last < 0 {
		return 0, nil
	}
	fi, err := os.Stat(filepath.Join(s.handleDir(handle), lastName))
	if err != nil {
		return 0, err
	}
	return last*s.ext + fi.Size(), nil
}

// sizeLoad returns handle's stream size, scanning the directory on the
// first touch and the size cache afterwards.
func (s *ExtentStore) sizeLoad(handle uint64) (int64, error) {
	s.mu.Lock()
	if sz, ok := s.sizes[handle]; ok {
		s.mu.Unlock()
		return sz, nil
	}
	s.mu.Unlock()
	sz, err := s.scanSize(handle)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	if cur, ok := s.sizes[handle]; ok && cur > sz {
		sz = cur // a write raced the scan and grew the stream
	}
	s.sizes[handle] = sz
	s.mu.Unlock()
	return sz, nil
}

// growSize raises the cached size to at least end.
func (s *ExtentStore) growSize(handle uint64, end int64) {
	s.mu.Lock()
	if end > s.sizes[handle] {
		s.sizes[handle] = end
	}
	s.mu.Unlock()
}

// ReadAt implements Store.
func (s *ExtentStore) ReadAt(handle uint64, p []byte, off uint64) (int, error) {
	size, err := s.sizeLoad(handle)
	if err != nil {
		return 0, err
	}
	if int64(off) >= size || len(p) == 0 {
		return 0, nil
	}
	n := int(min(int64(len(p)), size-int64(off)))
	done := 0
	for done < n {
		o := int64(off) + int64(done)
		idx, local := o/s.ext, o%s.ext
		k := int(min(s.ext-local, int64(n-done)))
		dst := p[done : done+k]
		e, err := s.extent(handle, idx, false)
		switch {
		case os.IsNotExist(err):
			clear(dst) // whole extent missing: hole
		case err != nil:
			return done, err
		default:
			m, rerr := e.f.ReadAt(dst, local)
			s.fds.release(e)
			if m < k {
				if rerr != nil && !errors.Is(rerr, io.EOF) {
					return done + m, rerr
				}
				clear(dst[m:]) // file shorter than the data above it: hole
			}
		}
		done += k
	}
	return n, nil
}

// readView implements ReadView: [off, off+n) clipped to the stream and to
// off's extent, lent from the extent file's mapping when the file holds all
// of it, else read into buf.
func (s *ExtentStore) readView(handle uint64, buf []byte, off uint64) (View, error) {
	size, err := s.sizeLoad(handle)
	if err != nil {
		return View{}, err
	}
	if int64(off) >= size || len(buf) == 0 {
		return View{}, nil
	}
	idx, local := int64(off)/s.ext, int64(off)%s.ext
	n := min(int64(len(buf)), size-int64(off), s.ext-local)
	if e, err := s.extent(handle, idx, false); err == nil {
		if m := s.fds.mapping(e, s.ext, local+n, false); m != nil {
			return View{b: m[local : local+n : local+n], e: e, c: s.fds}, nil
		}
		s.fds.release(e)
	}
	k, err := s.ReadAt(handle, buf[:n], off)
	return View{b: buf[:k]}, err
}

// MappedExtents reports how many mappings of extent files there are — for
// views and for write landings — counting those that go when their last
// user releases the file (tests).
func (s *ExtentStore) MappedExtents() int { return int(s.fds.mapped.Load()) }

// landing returns the parts of handle's stream under [off, off+n) as the
// read-write mappings of their extent files, pinned (mapParts) — when the
// range lies inside the stream and inside existing extent files, and every
// page of it is in the page cache; otherwise false. A write into the range
// through the parts extends nothing and reads nothing from the disk first:
// a whole-page pwrite would not either.
func (s *ExtentStore) landing(handle, off uint64, n int) ([]extentPart, bool) {
	s.mu.Lock()
	size, ok := s.sizes[handle]
	s.mu.Unlock()
	if !ok || off > uint64(size) || uint64(n) > uint64(size)-off {
		return nil, false // an unknown stream, or a write that extends it
	}
	return s.mapParts(handle, off, int64(n), true)
}

// mappedRange returns n bytes of handle's stream at off, which lie inside
// the stream, as views of their extent files' read-only mappings, pinned
// until the payload closes — when every byte lies in an extent file that
// holds it; otherwise nil (a hole, a short extent file, a build without
// mmap), and the caller takes the ReadRange path.
func (s *ExtentStore) mappedRange(handle, off, n uint64) *wire.MappedPayload {
	parts, ok := s.mapParts(handle, off, int64(n), false)
	if !ok {
		return nil
	}
	views := make([][]byte, len(parts))
	for i, p := range parts {
		views[i] = p.b
	}
	return wire.NewMappedPayload(views, func() { s.unpin(parts) })
}

// extentPart is the part of a range of a stream in one extent file.
type extentPart struct {
	e     *fdEntry
	b     []byte // the part's bytes in e's mapping
	local int64  // where b starts in the file
}

// mapParts returns handle's stream under [off, off+n) as parts of its
// extent files' mappings — read-write with write, and then only over pages
// in the page cache — one part per extent, each pinning its file's
// fd-cache entry; false, with nothing pinned, when an extent file is
// missing, shorter than its part, cannot be mapped, or (with write) holds
// a page of its part that is not resident.
func (s *ExtentStore) mapParts(handle, off uint64, n int64, write bool) ([]extentPart, bool) {
	parts := make([]extentPart, 0, 2)
	page := int64(os.Getpagesize())
	for done := int64(0); done < n; {
		o := int64(off) + done
		idx, local := o/s.ext, o%s.ext
		k := min(s.ext-local, n-done)
		e, err := s.extent(handle, idx, false)
		if err != nil {
			s.unpin(parts)
			return nil, false // a hole: the extent file does not exist
		}
		parts = append(parts, extentPart{e: e})
		m := s.fds.mapping(e, s.ext, local+k, write)
		if m == nil || write && !resident(m[local&^(page-1):local+k]) {
			s.unpin(parts)
			return nil, false
		}
		parts[len(parts)-1].b, parts[len(parts)-1].local = m[local:local+k:local+k], local
		done += k
	}
	return parts, true
}

// unpin releases the fd-cache entries parts pin.
func (s *ExtentStore) unpin(parts []extentPart) {
	for _, p := range parts {
		s.fds.release(p.e)
	}
}

// WriteAt implements Store.
func (s *ExtentStore) WriteAt(handle uint64, p []byte, off uint64) (int, error) {
	if len(p) == 0 {
		return 0, nil // zero-length writes do not extend (POSIX pwrite)
	}
	size, err := s.sizeLoad(handle) // primes the size cache for growSize below
	if err != nil {
		return 0, err
	}
	if size == 0 {
		// A stream with bytes has an extent file, so its directory exists:
		// only a new (or emptied, or removed) stream may need it made.
		if err := os.MkdirAll(s.handleDir(handle), 0o755); err != nil {
			return 0, err
		}
	}
	written := 0
	for written < len(p) {
		o := int64(off) + int64(written)
		idx, local := o/s.ext, o%s.ext
		k := int(min(s.ext-local, int64(len(p)-written)))
		e, err := s.extent(handle, idx, true)
		if err != nil {
			return written, err
		}
		_, werr := e.f.WriteAt(p[written:written+k], local)
		if werr == nil && s.sync {
			werr = e.f.Sync()
		}
		s.fds.release(e)
		if werr != nil {
			return written, werr
		}
		written += k
	}
	s.growSize(handle, int64(off)+int64(len(p)))
	return written, nil
}

// Size implements Store.
func (s *ExtentStore) Size(handle uint64) uint64 {
	sz, err := s.sizeLoad(handle)
	if err != nil || sz < 0 {
		return 0
	}
	return uint64(sz)
}

// Truncate implements Store. Like FileStore it sets the exact stream
// size — shrinking discards, growing extends with a hole — and no-ops
// on a handle that has no stream.
func (s *ExtentStore) Truncate(handle uint64, size uint64) error {
	if _, err := os.Stat(s.handleDir(handle)); os.IsNotExist(err) {
		return nil
	} else if err != nil {
		return err
	}
	lastIdx := int64(0)
	local := int64(0)
	if size > 0 {
		lastIdx = int64(size-1) / s.ext
		local = int64(size) - lastIdx*s.ext
	}
	// Drop extents past the new boundary. Each is cut to length 0 before
	// it is unlinked, so a payload or mapped view still holding it reads
	// EOF or faults, and zero-fills, as past the boundary extent's cut.
	ents, err := os.ReadDir(s.handleDir(handle))
	if err != nil {
		return err
	}
	for _, ent := range ents {
		idx := parseExtentName(ent.Name())
		if idx < 0 || (size > 0 && idx <= lastIdx) {
			continue // foreign file, or an extent that survives
		}
		s.fds.invalidate(fdKey{handle: handle, ext: uint32(idx)})
		path := filepath.Join(s.handleDir(handle), ent.Name())
		if err := os.Truncate(path, 0); err != nil && !os.IsNotExist(err) {
			return err
		}
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	if size > 0 {
		// Pin the boundary extent to the exact local length, creating it
		// if the truncate grows the stream into untouched space.
		e, err := s.extent(handle, lastIdx, true)
		if err != nil {
			return err
		}
		s.fds.shrink(e, local) // views and landings taken from here on stay inside the cut
		terr := e.f.Truncate(local)
		if terr == nil && s.sync {
			terr = e.f.Sync()
		}
		s.fds.release(e)
		if terr != nil {
			return terr
		}
	}
	s.mu.Lock()
	s.sizes[handle] = int64(size)
	s.mu.Unlock()
	return nil
}

// Remove implements Store.
func (s *ExtentStore) Remove(handle uint64) error {
	s.fds.invalidateHandle(handle)
	s.mu.Lock()
	delete(s.sizes, handle)
	s.mu.Unlock()
	return os.RemoveAll(s.handleDir(handle))
}

// Close implements Store.
func (s *ExtentStore) Close() error { return s.fds.closeAll() }

// ReadRange implements RangeReader: the zero-copy read path. The
// returned payload references the extent files directly (missing
// extents become zero sections) and pins their fd-cache entries until
// Close.
func (s *ExtentStore) ReadRange(handle uint64, off, n uint64) (wire.Payload, error) {
	size, err := s.sizeLoad(handle)
	if err != nil {
		return nil, err
	}
	if int64(off)+int64(n) > size {
		return nil, fmt.Errorf("%w: range [%d,%d) past stream end %d", ErrInvalid, off, off+n, size)
	}
	secs := make([]wire.FileSection, 0, int64(n)/s.ext+2)
	held := make([]*fdEntry, 0, cap(secs))
	release := func() {
		for _, e := range held {
			s.fds.release(e)
		}
	}
	for rem := int64(n); rem > 0; {
		o := int64(off) + int64(n) - rem
		idx, local := o/s.ext, o%s.ext
		k := min(s.ext-local, rem)
		e, err := s.extent(handle, idx, false)
		switch {
		case os.IsNotExist(err):
			secs = append(secs, wire.FileSection{N: k}) // hole: zeros
		case err != nil:
			release()
			return nil, err
		default:
			held = append(held, e)
			secs = append(secs, wire.FileSection{F: e.f, Off: local, N: k})
		}
		rem -= k
	}
	return wire.NewFilePayload(secs, release), nil
}
