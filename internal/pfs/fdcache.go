package pfs

import (
	"container/list"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// DefaultFDCacheSize caps how many file descriptors a disk-backed store
// keeps open. 256 stays far under typical rlimits while covering the
// working set of a busy node (a few dozen hot streams × a few extents).
const DefaultFDCacheSize = 256

// fdKey identifies one cached descriptor: a handle's single backing file
// (FileStore, ext == 0) or one of its extents (ExtentStore).
type fdKey struct {
	handle uint64
	ext    uint32
}

// fdEntry is one cached descriptor with a reference count. The cache
// holds an implicit reference while the entry is live; payloads and views
// in flight hold explicit ones, so eviction can never close a descriptor
// or unmap its file out from under a sendfile or a kernel in progress — a
// dead entry closes when its last reference drops.
type fdEntry struct {
	key  fdKey
	f    *os.File
	refs int
	dead bool // evicted or invalidated; close once refs == 0
	elem *list.Element
	// next and prev link the live entries of one handle (fdCache.handles).
	next, prev *fdEntry

	// m is a read-only shared mapping of the file, made on the first view
	// or mapped send (ExtentStore.readView, mappedRange); wm a read-write one, made on the first write
	// landing (ExtentStore.landing), so the views stay read-only. Both are
	// unmapped only by closeEntry. valid is the file length fstat reported
	// last: neither views nor landings reach past it, so they never touch a
	// page beyond the file's end.
	m, wm []byte
	valid int64
}

// fdCache is a capped, refcounted LRU of open descriptors, shared by the
// disk-backed stores. All operations are safe for concurrent use; opens
// run under the cache lock (serializing them, as the pre-cache FileStore
// did), which also makes open-or-create races impossible.
type fdCache struct {
	mu      sync.Mutex
	cap     int
	entries map[fdKey]*fdEntry
	handles map[uint64]*fdEntry // first of each handle's live entries
	lru     *list.List          // front = most recently used; holds *fdEntry
	closed  bool
	mapped  atomic.Int64 // mappings of entries, live or awaiting their last release

	hits, misses int64 // acquires that found their key cached, and that did not
}

func newFDCache(capacity int) *fdCache {
	if capacity <= 0 {
		capacity = DefaultFDCacheSize
	}
	return &fdCache{cap: capacity, entries: make(map[fdKey]*fdEntry), handles: make(map[uint64]*fdEntry), lru: list.New()}
}

// acquire returns the cached descriptor for key, opening it with open on
// a miss, and takes a reference the caller must release. Opening past
// capacity evicts unreferenced LRU entries first; entries pinned by
// in-flight payloads are skipped (the cache may transiently exceed cap).
func (c *fdCache) acquire(key fdKey, open func() (*os.File, error)) (*fdEntry, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, os.ErrClosed
	}
	if e, ok := c.entries[key]; ok {
		c.hits++
		e.refs++
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		return e, nil
	}
	c.misses++
	f, err := open()
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	e := &fdEntry{key: key, f: f, refs: 1}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	if first := c.handles[key.handle]; first != nil {
		e.next, first.prev = first, e
	}
	c.handles[key.handle] = e
	evicted := make([]*fdEntry, 0, 2) // usually one: the cache was at cap before this open
	for c.lru.Len() > c.cap {
		v := c.evictLRULocked()
		if v == nil {
			break
		}
		evicted = append(evicted, v)
	}
	c.mu.Unlock()
	for _, v := range evicted {
		c.closeEntry(v)
	}
	return e, nil
}

// evictLRULocked unlinks the least-recently-used unreferenced entry and
// returns it for the caller to close, or nil when every entry is pinned.
func (c *fdCache) evictLRULocked() *fdEntry {
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*fdEntry)
		if e.refs > 0 {
			continue
		}
		c.removeLocked(e)
		return e
	}
	return nil
}

// removeLocked unlinks e from the maps, its handle's list and the LRU
// and marks it dead. The caller closes e if no references remain.
func (c *fdCache) removeLocked(e *fdEntry) {
	delete(c.entries, e.key)
	switch {
	case e.prev != nil:
		e.prev.next = e.next
	case e.next != nil:
		c.handles[e.key.handle] = e.next
	default:
		delete(c.handles, e.key.handle)
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	c.lru.Remove(e.elem)
	e.dead = true
}

// closeEntry is the one place an entry ends — eviction, invalidation, the
// last release of a dead entry, closeAll: its mappings, if any, are
// unmapped, then its descriptor closed. e is dead and unreferenced, so no
// payload, view or landing can still be using either; both run outside the
// cache lock.
func (c *fdCache) closeEntry(e *fdEntry) error {
	for _, m := range []*[]byte{&e.m, &e.wm} {
		if *m != nil {
			unmapFile(*m)
			*m = nil
			c.mapped.Add(-1)
		}
	}
	return e.f.Close()
}

// release drops one reference taken by acquire.
func (c *fdCache) release(e *fdEntry) {
	c.mu.Lock()
	e.refs--
	closeNow := e.dead && e.refs == 0
	c.mu.Unlock()
	if closeNow {
		c.closeEntry(e)
	}
}

// invalidate removes key from the cache (Remove/Truncate of the backing
// file). The descriptor closes immediately if unreferenced, else when
// the last in-flight payload releases it.
func (c *fdCache) invalidate(key fdKey) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.removeLocked(e)
	}
	closeNow := ok && e.refs == 0
	c.mu.Unlock()
	if closeNow {
		c.closeEntry(e)
	}
}

// invalidateHandle removes every cached descriptor of handle. It walks
// only that handle's entries, not the whole cache.
func (c *fdCache) invalidateHandle(handle uint64) {
	c.mu.Lock()
	var toClose []*fdEntry
	for e, next := c.handles[handle], (*fdEntry)(nil); e != nil; e = next {
		next = e.next
		c.removeLocked(e)
		if e.refs == 0 {
			toClose = append(toClose, e)
		}
	}
	c.mu.Unlock()
	for _, e := range toClose {
		c.closeEntry(e)
	}
}

// mapping returns e's read-only mapping of its file — or, with write, its
// read-write one — when the file's first need bytes exist, mapping size
// bytes on first use; nil when the file is shorter than need or cannot be
// mapped. The length is taken again with fstat only when need passes the
// one seen last, so a file that grew since is seen without a remap. The
// caller holds a reference on e.
func (c *fdCache) mapping(e *fdEntry, size, need int64, write bool) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := &e.m
	if write {
		m = &e.wm
	}
	if *m == nil {
		mm, err := mapFile(e.f, size, write)
		if err != nil {
			return nil
		}
		*m = mm
		c.mapped.Add(1)
	}
	if need > e.valid {
		fi, err := e.f.Stat()
		if err != nil {
			return nil
		}
		e.valid = min(fi.Size(), size)
		if need > e.valid {
			return nil
		}
	}
	return *m
}

// shrink lowers the length views and landings of e may reach to n. Called
// before the file is cut to n bytes: no view taken and no landing segment
// begun from then on reaches past the cut, and a segment still filling
// when the file is cut is contained by readMapped.
func (c *fdCache) shrink(e *fdEntry, n int64) {
	c.mu.Lock()
	e.valid = min(e.valid, n)
	c.mu.Unlock()
}

// landInto reads len(p) bytes from r into p, the bytes of e's read-write
// mapping that end at file offset end, unless e was cut below end or
// dropped from the cache since the landing was granted; then it reads
// nothing and returns ErrWriteCut. See readMapped for a cut made while p
// fills. The caller holds a reference on e.
func (c *fdCache) landInto(e *fdEntry, end int64, r io.Reader, p []byte) (int, error) {
	c.mu.Lock()
	cut := e.dead || end > e.valid
	c.mu.Unlock()
	if cut {
		return 0, ErrWriteCut
	}
	return readMapped(r, p)
}

// counts reports the cache's hits and misses so far and its mappings now.
func (c *fdCache) counts() (hits, misses, mapped int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.mapped.Load()
}

// len reports the number of live cached descriptors (tests).
func (c *fdCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// closeAll invalidates everything and shuts the cache. Pinned
// descriptors close as their references drop.
func (c *fdCache) closeAll() error {
	c.mu.Lock()
	c.closed = true
	var toClose []*fdEntry
	for _, e := range c.entries {
		e.dead = true
		if e.refs == 0 {
			toClose = append(toClose, e)
		}
	}
	c.entries = make(map[fdKey]*fdEntry)
	c.handles = make(map[uint64]*fdEntry)
	c.lru.Init()
	c.mu.Unlock()
	var first error
	for _, e := range toClose {
		if err := c.closeEntry(e); err != nil && first == nil {
			first = err
		}
	}
	return first
}
