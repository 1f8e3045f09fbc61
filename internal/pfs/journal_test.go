package pfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dosas/internal/eventlog"
	"dosas/internal/metrics"
	"dosas/internal/telemetry"
	"dosas/internal/wire"
)

func newMetaWithJournal(t *testing.T, path string) *MetaServer {
	t.Helper()
	m, err := NewMetaServer(MetaConfig{NumDataServers: 4, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestJournalReplayRestoresNamespace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.wal")
	m1 := newMetaWithJournal(t, path)

	resp, err := m1.Handle(&wire.CreateReq{Name: "alpha", StripeSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	h := resp.(*wire.CreateResp).Handle
	if _, err := m1.Handle(&wire.SetSizeReq{Handle: h, Size: 999}); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Handle(&wire.CreateReq{Name: "beta"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Handle(&wire.RemoveReq{Name: "beta"}); err != nil {
		t.Fatal(err)
	}
	m1.Close()

	m2 := newMetaWithJournal(t, path)
	st, err := m2.Handle(&wire.StatReq{Name: "alpha"})
	if err != nil {
		t.Fatalf("alpha lost after replay: %v", err)
	}
	sr := st.(*wire.StatResp)
	if sr.Size != 999 || sr.Handle != h || sr.Layout.StripeSize != 1024 {
		t.Errorf("replayed record = %+v", sr)
	}
	if _, err := m2.Handle(&wire.OpenReq{Name: "beta"}); !IsNotFound(err) {
		t.Errorf("beta should stay removed, err = %v", err)
	}
	// Handle allocation must not reuse replayed handles.
	cr, err := m2.Handle(&wire.CreateReq{Name: "gamma"})
	if err != nil {
		t.Fatal(err)
	}
	if got := cr.(*wire.CreateResp).Handle; got <= h {
		t.Errorf("new handle %d not beyond replayed %d", got, h)
	}
}

func TestJournalTornTailIsDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	m1 := newMetaWithJournal(t, path)
	if _, err := m1.Handle(&wire.CreateReq{Name: "keep"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Handle(&wire.CreateReq{Name: "alsokeep"}); err != nil {
		t.Fatal(err)
	}
	m1.Close()

	// Simulate a crash mid-append: chop bytes off the end.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := newMetaWithJournal(t, path)
	if _, err := m2.Handle(&wire.OpenReq{Name: "keep"}); err != nil {
		t.Errorf("first entry lost: %v", err)
	}
	if _, err := m2.Handle(&wire.OpenReq{Name: "alsokeep"}); !IsNotFound(err) {
		t.Errorf("torn entry should be discarded, err = %v", err)
	}
	// The journal must keep working after truncation.
	if _, err := m2.Handle(&wire.CreateReq{Name: "after"}); err != nil {
		t.Fatal(err)
	}
	m2.Close()
	m3 := newMetaWithJournal(t, path)
	if _, err := m3.Handle(&wire.OpenReq{Name: "after"}); err != nil {
		t.Errorf("post-recovery append lost: %v", err)
	}
}

func TestJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.wal")
	m1 := newMetaWithJournal(t, path)
	// Generate history: creates, removals, repeated size growth.
	for i := 0; i < 20; i++ {
		name := "f" + string(rune('a'+i))
		resp, err := m1.Handle(&wire.CreateReq{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		h := resp.(*wire.CreateResp).Handle
		for s := uint64(1); s <= 5; s++ {
			if _, err := m1.Handle(&wire.SetSizeReq{Handle: h, Size: s * 1000}); err != nil {
				t.Fatal(err)
			}
		}
		if i%2 == 1 {
			if _, err := m1.Handle(&wire.RemoveReq{Name: name}); err != nil {
				t.Fatal(err)
			}
		}
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Errorf("compaction did not shrink the journal: %d → %d", before.Size(), after.Size())
	}
	// The journal must keep accepting appends after compaction...
	if _, err := m1.Handle(&wire.CreateReq{Name: "post-compact"}); err != nil {
		t.Fatal(err)
	}
	m1.Close()
	// ...and a replay must reconstruct exactly the live namespace.
	m2 := newMetaWithJournal(t, path)
	files := m2.Files()
	if len(files) != 11 { // 10 surviving + post-compact
		t.Fatalf("replayed %d files, want 11", len(files))
	}
	for _, f := range files {
		if f.Name == "post-compact" {
			continue
		}
		if f.Size != 5000 {
			t.Errorf("file %s size = %d, want 5000", f.Name, f.Size)
		}
	}
	if _, err := m2.Handle(&wire.OpenReq{Name: "fb"}); !IsNotFound(err) {
		t.Error("removed file resurrected by compaction")
	}
}

func TestJournalCorruptEntryStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.wal")
	m1 := newMetaWithJournal(t, path)
	if _, err := m1.Handle(&wire.CreateReq{Name: "good"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Handle(&wire.CreateReq{Name: "bad"}); err != nil {
		t.Fatal(err)
	}
	m1.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF // flip a bit in the last entry's payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := newMetaWithJournal(t, path)
	if _, err := m2.Handle(&wire.OpenReq{Name: "good"}); err != nil {
		t.Errorf("intact entry lost: %v", err)
	}
	if _, err := m2.Handle(&wire.OpenReq{Name: "bad"}); !IsNotFound(err) {
		t.Errorf("corrupt entry should be discarded, err = %v", err)
	}
}

// crashFile is the journal's file as a disk sees it: writes are volatile
// until a Sync, and a crash keeps what was synced plus any part of what
// was not. It can die (every later call fails) on a chosen call.
type crashFile struct {
	mu      sync.Mutex
	data    []byte     // what reads would return
	durable []byte     // what a crash is certain to keep
	dirty   [][2]int64 // written since the last Sync: offset, length
	dieAt   int        // the calls-th WriteAt or Sync fails; 0 never
	dieLate bool       // the fatal Sync reaches the disk before failing
	calls   int        // WriteAt and Sync calls so far
	onSync  func()     // runs first in every Sync: a slow or stuck device
	dead    bool
}

var errCrashed = errors.New("crashFile: machine died")

func grown(b []byte, n int64) []byte {
	if int64(len(b)) < n {
		b = append(b, make([]byte, n-int64(len(b)))...)
	}
	return b
}

// step counts one call and reports whether the file is (now) dead.
func (c *crashFile) step() bool {
	c.calls++
	if c.calls == c.dieAt {
		c.dead = true
	}
	return c.dead
}

func (c *crashFile) WriteAt(p []byte, off int64) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return 0, errCrashed
	}
	// A write that kills the machine may still have reached the cache.
	c.data = grown(c.data, off+int64(len(p)))
	copy(c.data[off:], p)
	c.dirty = append(c.dirty, [2]int64{off, int64(len(p))})
	if c.step() {
		return 0, errCrashed
	}
	return len(p), nil
}

func (c *crashFile) Sync() error {
	if c.onSync != nil {
		c.onSync()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead || c.step() && !c.dieLate {
		return errCrashed
	}
	c.durable = grown(c.durable, int64(len(c.data)))
	for _, d := range c.dirty {
		copy(c.durable[d[0]:], c.data[d[0]:d[0]+d[1]])
	}
	c.dirty = nil
	if c.dead {
		return errCrashed
	}
	return nil
}

func (c *crashFile) Truncate(n int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.data, c.durable = grown(c.data, n)[:n], grown(c.durable, n)[:n]
	return nil
}

func (c *crashFile) Close() error { return nil }

// image is one disk a crash could leave: everything synced, and each
// unsynced write absent, whole, cut short, or cut short into garbage.
func (c *crashFile) image(r *rand.Rand) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	img := append([]byte(nil), c.durable...)
	for _, d := range c.dirty {
		keep := d[1]
		switch r.Intn(4) {
		case 0:
			continue
		case 1:
		default:
			keep = r.Int63n(d[1] + 1)
		}
		img = grown(img, d[0]+keep)
		copy(img[d[0]:], c.data[d[0]:d[0]+keep])
		if r.Intn(2) == 0 {
			junk := make([]byte, r.Intn(64))
			r.Read(junk)
			img = grown(img, d[0]+keep+int64(len(junk)))
			copy(img[d[0]+keep:], junk)
		}
	}
	return img
}

// metaOnCrashFile is a fresh journalled server whose journal writes to cf.
func metaOnCrashFile(t *testing.T, cf *crashFile) *MetaServer {
	t.Helper()
	m := newMetaWithJournal(t, filepath.Join(t.TempDir(), "meta.wal"))
	m.journal.f = cf
	return m
}

// fileState is what a client knows of one name from acknowledgements.
type fileState struct {
	exists bool
	handle uint64
	size   uint64
}

// crashClient mutates its own names, and the size of one file it shares
// with every other client, until the journal dies under it.
type crashClient struct {
	acked   [3]fileState // per name, as acknowledged
	failedN int          // the name whose mutation got the error; -1: the shared file's
	failed  fileState    // that name, had the mutation taken effect
	shared  uint64       // the largest size of the shared file it was answered
}

func (c *crashClient) run(t *testing.T, m *MetaServer, id int, r *rand.Rand, maxHandle *atomic.Uint64, shared uint64) {
	for {
		if r.Intn(4) == 0 {
			// Often below what another client just set: answered from
			// memory, it must still wait for that client's entry.
			resp, err := m.Handle(&wire.SetSizeReq{Handle: shared, Size: uint64(r.Intn(4000))})
			if err != nil {
				c.failedN = -1
				return
			}
			c.shared = max(c.shared, resp.(*wire.SetSizeResp).Size)
			continue
		}
		n := r.Intn(len(c.acked))
		cur := c.acked[n]
		next := cur
		var req wire.Message
		switch {
		case !cur.exists:
			req, next = &wire.CreateReq{Name: fmt.Sprintf("c%d/n%d", id, n)}, fileState{exists: true}
		case r.Intn(3) == 0:
			req, next = &wire.RemoveReq{Name: fmt.Sprintf("c%d/n%d", id, n)}, fileState{}
		default:
			next.size += 1 + uint64(r.Intn(1000))
			req = &wire.SetSizeReq{Handle: cur.handle, Size: next.size}
		}
		resp, err := m.Handle(req)
		if err != nil {
			if !errors.Is(err, ErrJournal) {
				t.Errorf("%v failed with %v, want ErrJournal", req.Type(), err)
			}
			c.failedN, c.failed = n, next
			return
		}
		if cr, ok := resp.(*wire.CreateResp); ok {
			next.handle = cr.Handle
			for h := maxHandle.Load(); cr.Handle > h && !maxHandle.CompareAndSwap(h, cr.Handle); h = maxHandle.Load() {
			}
		}
		c.acked[n] = next
	}
}

// TestJournalCrashKeepsAcknowledged is the durability property: whatever
// the disk looks like after a crash at any write or sync — including
// between a batch's write and its sync — replay yields, per name, the
// last acknowledged state or that state plus the one mutation in flight;
// a name removed and created again comes back as the new file; and no
// handle that was ever handed out is handed out again.
func TestJournalCrashKeepsAcknowledged(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		cf := &crashFile{dieLate: r.Intn(2) == 0}
		m := metaOnCrashFile(t, cf)
		resp, err := m.Handle(&wire.CreateReq{Name: "shared"})
		if err != nil {
			t.Fatal(err)
		}
		shared := resp.(*wire.CreateResp).Handle
		cf.mu.Lock()
		cf.dieAt = cf.calls + 1 + r.Intn(60)
		cf.mu.Unlock()
		clients := make([]crashClient, 4)
		var maxHandle atomic.Uint64
		maxHandle.Store(shared)
		var wg sync.WaitGroup
		for id := range clients {
			wg.Add(1)
			go func(id int, r *rand.Rand) {
				defer wg.Done()
				clients[id].run(t, m, id, r, &maxHandle, shared)
			}(id, rand.New(rand.NewSource(seed<<8+int64(id))))
		}
		wg.Wait()

		path := filepath.Join(t.TempDir(), "crashed.wal")
		if err := os.WriteFile(path, cf.image(r), 0o644); err != nil {
			t.Fatal(err)
		}
		m2 := newMetaWithJournal(t, path)
		resp, err = m2.Handle(&wire.StatReq{Name: "shared"})
		if err != nil {
			t.Fatalf("seed %d: shared file: %v", seed, err)
		}
		for id, c := range clients {
			if got := resp.(*wire.StatResp).Size; got < c.shared {
				t.Errorf("seed %d: shared file replayed with size %d; client %d was answered %d", seed, got, id, c.shared)
			}
			for n, want := range c.acked {
				got := fileState{}
				if resp, err := m2.Handle(&wire.StatReq{Name: fmt.Sprintf("c%d/n%d", id, n)}); err == nil {
					sr := resp.(*wire.StatResp)
					got = fileState{exists: true, handle: sr.Handle, size: sr.Size}
				} else if !IsNotFound(err) {
					t.Fatal(err)
				}
				if got.handle > maxHandle.Load() {
					maxHandle.Store(got.handle) // an unanswered create that made it to disk
				}
				alt := c.failed
				if alt.exists && alt.handle == 0 {
					alt.handle = got.handle // that create's handle was never learnt
				}
				if got != want && (n != c.failedN || got != alt) {
					t.Errorf("seed %d: c%d/n%d replayed as %+v; acknowledged %+v, failed op of name %d would give %+v",
						seed, id, n, got, want, c.failedN, alt)
				}
			}
		}
		resp, err = m2.Handle(&wire.CreateReq{Name: "after-crash"})
		if err != nil {
			t.Fatal(err)
		}
		if h := resp.(*wire.CreateResp).Handle; h <= maxHandle.Load() {
			t.Errorf("seed %d: handle %d handed out again (highest before: %d)", seed, h, maxHandle.Load())
		}
	}
}

// TestJournalNoopSetSizeWaits: a SetSize that finds the file already that
// large answers with a size another client's entry set, so it may not
// answer before that entry is durable.
func TestJournalNoopSetSizeWaits(t *testing.T) {
	var hold atomic.Bool
	release := make(chan struct{})
	m := metaOnCrashFile(t, &crashFile{onSync: func() {
		if hold.Load() {
			<-release
		}
	}})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer m.Close()
	defer free() // before Close, which waits out a sync in flight
	resp, err := m.Handle(&wire.CreateReq{Name: "f"})
	if err != nil {
		t.Fatal(err)
	}
	h := resp.(*wire.CreateResp).Handle
	hold.Store(true)
	answered := make(chan error, 2)
	setSize := func(size uint64) {
		_, err := m.Handle(&wire.SetSizeReq{Handle: h, Size: size})
		answered <- err
	}
	go setSize(100)
	for { // visible before durable
		if resp, err := m.Handle(&wire.StatReq{Name: "f"}); err != nil {
			t.Fatal(err)
		} else if resp.(*wire.StatResp).Size == 100 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	go setSize(50)
	select {
	case err := <-answered:
		t.Fatalf("a SetSize was answered (%v) while no sync had returned", err)
	case <-time.After(100 * time.Millisecond):
	}
	free()
	for i := 0; i < 2; i++ {
		if err := <-answered; err != nil {
			t.Error(err)
		}
	}
}

// TestJournalFailureIsSticky: once a write or sync fails, memory may be
// ahead of disk, so every mutation from then on gets ErrJournal, reads
// still answer, health turns not-OK and the event log says why, once.
func TestJournalFailureIsSticky(t *testing.T) {
	events, err := eventlog.New(eventlog.Config{Node: "meta"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMetaServer(MetaConfig{NumDataServers: 2, JournalPath: filepath.Join(t.TempDir(), "meta.wal"), Events: events})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cf := &crashFile{dieAt: 4} // create = write+sync, the next batch written, its sync fails
	m.journal.f = cf
	if _, err := m.Handle(&wire.CreateReq{Name: "kept"}); err != nil {
		t.Fatal(err)
	}
	journalCheck := func() telemetry.Check {
		t.Helper()
		var rep telemetry.HealthReport
		if _, err := IntrospectLocal(m, KindHealth, nil, &rep); err != nil {
			t.Fatal(err)
		}
		for _, c := range rep.Checks {
			if c.Name == "journal" {
				return c
			}
		}
		t.Fatal("no journal check")
		return telemetry.Check{}
	}
	if c := journalCheck(); !c.OK {
		t.Fatalf("healthy journal reported %+v", c)
	}
	var failures int
	for i := 0; i < 5; i++ {
		if _, err := m.Handle(&wire.CreateReq{Name: fmt.Sprintf("lost%d", i)}); errors.Is(err, ErrJournal) {
			failures++
		} else if failures > 0 {
			t.Fatalf("mutation %d after the failure returned %v, want ErrJournal", i, err)
		}
	}
	if failures == 0 {
		t.Fatal("the journal never failed")
	}
	if _, err := m.Handle(&wire.RemoveReq{Name: "kept"}); !errors.Is(err, ErrJournal) {
		t.Errorf("remove after the failure returned %v, want ErrJournal", err)
	}
	if _, err := m.Handle(&wire.StatReq{Name: "kept"}); err != nil {
		t.Errorf("stat after the failure: %v", err)
	}
	if c := journalCheck(); c.OK || !strings.Contains(c.Detail, errCrashed.Error()) {
		t.Errorf("failed journal reported %+v", c)
	}
	if errs := events.Snapshot(0, eventlog.Error, 0); len(errs) != 1 || !strings.Contains(eventlog.FormatEvent(errs[0]), errCrashed.Error()) {
		t.Errorf("error events = %+v, want one naming the cause", errs)
	}
}

// TestJournalGroupCommit drives 8 writers against a device whose every
// sync is held until a Stat has been answered: the namespace lock is never
// held across a flush, and the entries that queue up behind a held sync go
// out together, so there are fewer syncs than records.
func TestJournalGroupCommit(t *testing.T) {
	const writers, rounds = 8, 10
	reg := metrics.NewRegistry()
	m, err := NewMetaServer(MetaConfig{NumDataServers: 2, JournalPath: filepath.Join(t.TempDir(), "meta.wal"), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	inSync := make(chan chan struct{})
	m.journal.f = &crashFile{onSync: func() {
		release := make(chan struct{})
		inSync <- release
		<-release
	}}

	var wg sync.WaitGroup
	var running atomic.Int64 // writers that may still enqueue
	running.Store(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer running.Add(-1)
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("w%d/f%d", w, i)
				resp, err := m.Handle(&wire.CreateReq{Name: name})
				if err == nil {
					_, err = m.Handle(&wire.SetSizeReq{Handle: resp.(*wire.CreateResp).Handle, Size: 4096})
				}
				if err == nil && i%2 == 1 {
					_, err = m.Handle(&wire.RemoveReq{Name: name})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// A writer waits in Handle for its one record, so the records enqueued
	// and not yet durable count the writers that wait on the device. Once
	// that is every writer still running, pending holds all that the sync in
	// progress does not, and the next sync carries them together; it is
	// empty only when nobody is left to fill it.
	queued := func() bool {
		j := m.journal
		j.mu.Lock()
		defer j.mu.Unlock()
		return int64(j.seq-j.durable) >= running.Load()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for finished := false; !finished; {
		select {
		case release := <-inSync:
			timeout := time.After(10 * time.Second)
			stat := make(chan error, 1)
			go func() {
				_, err := m.Handle(&wire.StatReq{Name: "w0/f0"})
				stat <- err
			}()
			select {
			case err := <-stat:
				if err != nil && !IsNotFound(err) {
					t.Error(err)
				}
			case <-timeout:
				t.Fatal("Stat waited for a journal flush")
			}
			// Keep the device busy until the writers it makes wait have
			// queued up behind it: released any sooner, on a busy scheduler
			// every sync carries the one record of whoever ran first.
			for !queued() {
				select {
				case <-timeout:
					t.Fatal("writers did not queue behind a journal flush")
				default:
					runtime.Gosched()
				}
			}
			close(release)
		case <-done:
			finished = true
		}
	}
	records, syncs := reg.Counter("meta.journal.records").Value(), reg.Counter("meta.journal.syncs").Value()
	if want := int64(writers * (rounds*2 + rounds/2)); records != want {
		t.Errorf("journal recorded %d entries, want %d", records, want)
	}
	if syncs >= records {
		t.Errorf("%d syncs for %d records: nothing was batched", syncs, records)
	}
	if len(m.Files()) != writers*rounds/2 {
		t.Errorf("%d files live, want %d", len(m.Files()), writers*rounds/2)
	}
}

// TestJournalCompactMidStream compacts while 8 writers mutate: every
// acknowledged mutation, before or after a swap of the file, is in what a
// restart replays.
func TestJournalCompactMidStream(t *testing.T) {
	const writers, rounds = 8, 12
	path := filepath.Join(t.TempDir(), "meta.wal")
	m := newMetaWithJournal(t, path)
	stop := make(chan struct{})
	compacted := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				compacted <- n
				return
			default:
				if err := m.CompactJournal(); err != nil {
					t.Error(err)
				}
				n++
				time.Sleep(time.Millisecond)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("w%d/f%d", w, i)
				resp, err := m.Handle(&wire.CreateReq{Name: name})
				if err == nil {
					_, err = m.Handle(&wire.SetSizeReq{Handle: resp.(*wire.CreateResp).Handle, Size: uint64(1000 + i)})
				}
				if err == nil && i%3 == 0 {
					_, err = m.Handle(&wire.RemoveReq{Name: name})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if n := <-compacted; n == 0 {
		t.Fatal("no compaction ran")
	}
	want := m.Files()
	m.Close()
	got := newMetaWithJournal(t, path).Files()
	if len(want) != writers*rounds*2/3 || len(got) != len(want) {
		t.Fatalf("replayed %d files of %d live, want %d", len(got), len(want), writers*rounds*2/3)
	}
	for i := range want {
		want[i].ModTime = want[i].ModTime.Round(0) // the journal keeps no monotonic reading
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("replayed %+v, want %+v", got[i], want[i])
		}
	}
}

// TestJournalCompactRenameNotDurable: when the snapshot was renamed into
// place but the directory would not sync, the journal is the new file and
// is failed — nothing may be acknowledged from a file no name leads to.
func TestJournalCompactRenameNotDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.wal")
	m := newMetaWithJournal(t, path)
	for _, name := range []string{"a", "b"} {
		if _, err := m.Handle(&wire.CreateReq{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	realSyncDir, boom := syncDir, errors.New("directory sync failed")
	syncDir = func(string) error { return boom }
	err := m.CompactJournal()
	syncDir = realSyncDir
	if !errors.Is(err, boom) {
		t.Fatalf("CompactJournal = %v, want the directory sync's error", err)
	}
	if _, err := m.Handle(&wire.CreateReq{Name: "c"}); !errors.Is(err, ErrJournal) {
		t.Errorf("create after the failed compaction returned %v, want ErrJournal", err)
	}
	m.Close()
	if got := newMetaWithJournal(t, path).Files(); len(got) != 2 {
		t.Errorf("replayed %d files, want the 2 acknowledged", len(got))
	}
}

// TestJournalCompactionKeepsIssuedHandles: a snapshot holds live files
// only, yet a restart from it must not issue the handle of a file removed
// before it a second time — data servers key stripes by handle. Checked
// after a clean compaction and at both crash points of one: the snapshot
// written but not renamed (the old journal and a stale temp file), and
// renamed but the directory not synced.
func TestJournalCompactionKeepsIssuedHandles(t *testing.T) {
	handle := func(m *MetaServer, name string) uint64 {
		t.Helper()
		resp, err := m.Handle(&wire.CreateReq{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		return resp.(*wire.CreateResp).Handle
	}
	for _, crash := range []string{"none", "before rename", "rename not durable"} {
		t.Run(crash, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "meta.wal")
			m := newMetaWithJournal(t, path)
			a, b := handle(m, "a"), handle(m, "b")
			if _, err := m.Handle(&wire.RemoveReq{Name: "b"}); err != nil {
				t.Fatal(err)
			}
			old, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			realSyncDir := syncDir
			if crash == "rename not durable" {
				syncDir = func(string) error { return errors.New("directory sync failed") }
			}
			err = m.CompactJournal()
			syncDir = realSyncDir
			if (err != nil) != (crash == "rename not durable") {
				t.Fatalf("CompactJournal = %v", err)
			}
			m.Close()
			if crash == "before rename" {
				snapshot, err := os.ReadFile(path)
				if err == nil {
					err = os.WriteFile(path+".compact", snapshot, 0o644)
				}
				if err == nil {
					err = os.WriteFile(path, old, 0o644)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			m = newMetaWithJournal(t, path)
			if files := m.Files(); len(files) != 1 || files[0].Handle != a {
				t.Fatalf("replayed %+v, want only a", files)
			}
			if c := handle(m, "c"); c <= b {
				t.Fatalf("handle %d issued after a restart, but %d went to a file removed before the snapshot", c, b)
			}
			// Compacting again, now that the newest handle is live, keeps it too.
			if err := m.CompactJournal(); err != nil {
				t.Fatal(err)
			}
			m.Close()
			m = newMetaWithJournal(t, path)
			if d, files := handle(m, "d"), m.Files(); d <= b+1 || len(files) != 3 {
				t.Fatalf("after a second compaction: handle %d for d, files %+v", d, files)
			}
		})
	}
}

// journalBytes is what the server writes for a few mutations.
func journalBytes(t testing.TB) []byte {
	path := filepath.Join(t.TempDir(), "seed.wal")
	m, err := NewMetaServer(MetaConfig{NumDataServers: 4, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "dir/b", "c"} {
		resp, err := m.Handle(&wire.CreateReq{Name: name, Width: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Handle(&wire.SetSizeReq{Handle: resp.(*wire.CreateResp).Handle, Size: 12345}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Handle(&wire.RemoveReq{Name: "c"}); err != nil {
		t.Fatal(err)
	}
	m.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// FuzzJournalReplay feeds replay arbitrary bytes: it must not panic, must
// apply only entries whose checksum holds, and must leave the file cut at
// exactly the intact prefix it applied.
func FuzzJournalReplay(f *testing.F) {
	good := journalBytes(f)
	f.Add(good)
	f.Add(good[:len(good)-5])
	f.Add(append(append([]byte(nil), good...), make([]byte, 4096)...)) // zeros where nothing was written
	f.Add(append(append([]byte(nil), good...), 0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4, 5))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// The cut lands on an in-memory stand-in, sparing a sync per input.
		cf := &crashFile{data: append([]byte(nil), data...)}
		j := &journal{path: path, f: cf}
		applied := 0
		if err := j.replay(func(uint8, *FileRec) error { applied++; return nil }); err != nil {
			t.Fatal(err)
		}
		kept := cf.data
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("replay left %d bytes that are not a prefix of the %d given", len(kept), len(data))
		}
		for rest := kept; len(rest) > 0; applied-- {
			if len(rest) < 8 {
				t.Fatalf("kept a torn header (%d bytes)", len(rest))
			}
			n := int(binary.LittleEndian.Uint32(rest))
			if n == 0 || 8+n > len(rest) || crc32.ChecksumIEEE(rest[8:8+n]) != binary.LittleEndian.Uint32(rest[4:]) {
				t.Fatalf("kept an entry of length %d that is torn or fails its checksum", n)
			}
			rest = rest[8+n:]
		}
		if applied != 0 {
			t.Fatalf("applied %d entries more than the file keeps", applied)
		}
	})
}
