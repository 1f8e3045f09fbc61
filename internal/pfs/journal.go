package pfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dosas/internal/eventlog"
	"dosas/internal/metrics"
	"dosas/internal/wire"
)

// Journal entry opcodes. On-disk values; append only.
const (
	entryCreate uint8 = iota + 1
	entryRemove
	entrySetSize
)

// ErrJournal is what every mutation returns once a journal write or sync
// has failed: memory may be ahead of disk until a restart replays.
var ErrJournal = errors.New("pfs: metadata journal failed")

// journalFile is the journal's file; the crash tests substitute a disk.
type journalFile interface {
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// journal is the metadata server's write-ahead log. Each entry is
//
//	+---------+--------+-------+------------------+
//	| len u32 | crc u32| op u8 | payload (len-1) B |
//	+---------+--------+-------+------------------+
//
// where crc covers op+payload. Replay stops cleanly at the first torn,
// corrupt or zero-length entry (a crash mid-append), truncating the tail,
// so a restart after power loss recovers every fully written mutation.
// Appends group-commit (DESIGN.md §16): enqueue only
// encodes into pending; a commit that finds no leader writes and syncs all
// of pending in one go.
type journal struct {
	path   string
	f      journalFile
	events *eventlog.Log // told the first failure
	// meta.journal.{records,syncs,sync_us}; nil for a journal that only
	// replays
	records, syncs, syncUS *metrics.Counter

	mu      sync.Mutex
	cond    *sync.Cond
	pending []byte // encoded entries no leader has taken yet
	seq     uint64 // entries enqueued
	durable uint64 // entries synced
	leading bool   // a leader is writing, outside mu
	tail    int64  // end of the last synced entry
	err     error  // sticky first failure, wrapping ErrJournal
}

func openJournal(path string, reg *metrics.Registry, events *eventlog.Log) (*journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err == nil {
		err = syncDir(path)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pfs: journal open: %w", err)
	}
	j := &journal{
		path: path, f: f, events: events,
		records: reg.Counter("meta.journal.records"), syncs: reg.Counter("meta.journal.syncs"),
		syncUS: reg.Counter("meta.journal.sync_us"),
	}
	j.cond = sync.NewCond(&j.mu)
	return j, nil
}

// syncDir makes the creation or rename of path durable; a variable so that
// a test can fail it.
var syncDir = func(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// flush writes buf at off and syncs.
func flush(f journalFile, buf []byte, off int64) error {
	_, err := f.WriteAt(buf, off)
	if err == nil {
		err = f.Sync()
	}
	return err
}

// close waits out a write in flight and closes.
func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.leading {
		j.cond.Wait()
	}
	return j.f.Close()
}

// appendEntry appends one encoded entry to buf.
func appendEntry(buf []byte, op uint8, rec *FileRec) ([]byte, error) {
	var c wire.Codec
	entryFields(&c, &op, rec)
	body := c.Buf()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
	return append(buf, body...), c.Err()
}

// enqueue encodes one entry, without I/O, and returns the sequence number
// to commit; refused once the journal failed. A nil journal is volatile.
func (j *journal) enqueue(op uint8, rec *FileRec) (uint64, error) {
	if j == nil {
		return 0, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	buf, err := appendEntry(j.pending, op, rec)
	if err != nil || j.err != nil {
		return 0, errors.Join(err, j.err)
	}
	j.pending = buf
	j.seq++
	return j.seq, nil
}

// enqueued is the newest entry's sequence number: what a mutation that found
// its work already done, by an entry that may still be in flight, commits.
func (j *journal) enqueued() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// commit returns once entry seq is on stable storage — the WAL contract:
// durable before acknowledged — or with the error that stopped the journal.
func (j *journal) commit(seq uint64) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.durable < seq && j.err == nil {
		if j.leading { // follow
			j.cond.Wait()
			continue
		}
		buf, upto, off := j.pending, j.seq, j.tail
		j.pending, j.leading = nil, true
		j.mu.Unlock()
		start := time.Now()
		err := flush(j.f, buf, off)
		j.syncs.Inc()
		j.syncUS.Add(time.Since(start).Microseconds())
		j.mu.Lock()
		j.leading = false
		if err == nil {
			j.records.Add(int64(upto - j.durable))
			j.durable, j.tail = upto, off+int64(len(buf))
		}
		j.fail(err)
	}
	if j.durable >= seq {
		return nil
	}
	return j.err
}

// fail, with mu held, wakes every waiter and makes a non-nil err sticky.
func (j *journal) fail(err error) {
	if err != nil && j.err == nil {
		j.err = fmt.Errorf("%w: %v", ErrJournal, err)
		j.events.Error("meta", "journal failed; mutations refused until restart", "err", j.err.Error())
	}
	j.cond.Broadcast()
}

// replay feeds every intact entry to apply, then durably cuts the file.
func (j *journal) replay(apply func(op uint8, rec *FileRec) error) error {
	data, err := os.ReadFile(j.path)
	if err != nil {
		return err
	}
	for rest := data; len(rest) >= 8; {
		// Compared unsigned: a torn length of 2^31 or more must not turn
		// negative on a 32-bit int.
		n := uint64(binary.LittleEndian.Uint32(rest))
		if n == 0 || n > 1<<20 || n > uint64(len(rest)-8) || crc32.ChecksumIEEE(rest[8:8+n]) != binary.LittleEndian.Uint32(rest[4:]) {
			break // a torn or corrupt entry, or zeros where none was written
		}
		c := wire.NewDecoder(rest[8 : 8+n])
		var op uint8
		rec := &FileRec{}
		if entryFields(c, &op, rec); c.Err() != nil {
			break
		}
		if err := apply(op, rec); err != nil {
			return err
		}
		rest = rest[8+n:]
		j.tail = int64(len(data) - len(rest))
	}
	if err := j.f.Truncate(j.tail); err != nil {
		return err
	}
	return j.f.Sync()
}

// compact rewrites the journal as one create entry per live record (the
// current snapshot), dropping the history of removed files and superseded
// size updates: written and synced as one batch to a temp file, renamed
// over the journal, and the directory synced, so a crash at any point
// leaves the old journal or the new one. The caller holds the namespace
// lock: nothing is enqueued meanwhile, and j.seq is stable.
//
// issued, when non-zero, is the newest handle issued and belongs to a file
// since removed. The snapshot ends with that file created and removed
// again under a name no client can create, so that a replay — by any
// version: it is two ordinary entries — never issues the handle a second
// time: data servers key stripes by handle.
func (j *journal) compact(records []*FileRec, issued uint64) error {
	var buf []byte
	var err error
	for _, rec := range records {
		if buf, err = appendEntry(buf, entryCreate, rec); err != nil {
			return err
		}
	}
	if issued != 0 {
		mark := &FileRec{Handle: issued} // the empty name is refused by create
		for _, op := range []uint8{entryCreate, entryRemove} {
			if buf, err = appendEntry(buf, op, mark); err != nil {
				return err
			}
		}
	}
	// What is still pending goes to the old file, releasing its waiters (the
	// snapshot already contains it); after that no leader is writing.
	if err := j.commit(j.enqueued()); err != nil {
		return err
	}
	tmp := j.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err = flush(f, buf, 0); err == nil {
		err = os.Rename(tmp, j.path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// The name now leads to f, so f is the journal; if the rename itself
	// cannot be made durable, nothing more may be acknowledged.
	err = syncDir(j.path)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.f.Close()
	j.f, j.tail = f, int64(len(buf))
	j.fail(err)
	return err
}

// entryFields is a journal entry's op and record, after its length and
// checksum.
func entryFields(c *wire.Codec, op *uint8, rec *FileRec) {
	mod := rec.ModTime.UnixNano()
	c.U8(op)
	c.U64(&rec.Handle)
	c.String(&rec.Name)
	c.U64(&rec.Size)
	c.I64(&mod)
	rec.Layout.Fields(c)
	if c.Decoding() {
		rec.ModTime = time.Unix(0, mod)
	}
}
