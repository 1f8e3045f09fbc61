package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"

	"dosas"
	"dosas/internal/kernels"
)

// The five workloads. Names are fixed: later issues cite them.
var workloads = []workload{
	{
		name: "bulk_read", clients: 2, tracedClients: 1, setup: setupBulk(false),
		why: "4 MiB reads of one 256 MiB file: time is wire framing, sendfile/writev and the client window; a framing or zero-copy change must show here",
	},
	{
		name: "bulk_write", clients: 2, tracedClients: 1, setup: setupBulk(true),
		why: "4 MiB writes over the same file: the same wire and pfs layers in the other direction, so a read-path gain that costs writes shows",
	},
	{
		name: "small_ops", clients: 2, tracedClients: 1, setup: setupSmall,
		why: "4 KiB read/write/stat/create mix over 1024 files (4x the fd cache): bytes are negligible, time is per-message cost; bulk-path changes should not move it",
	},
	{
		name: "active_sched", clients: 1, tracedClients: 1, setup: setupSched,
		why: "the paper's experiment: paced sum8 at n=1 and n=8 under TS, AS and DOSAS; only scheduler decisions move it, CPU and data-path work predict no change",
	},
	{
		name: "active_mixed", clients: 2, tracedClients: 2, setup: setupMixed, tenants: []string{"scan", "victim"},
		why: "unpaced sum8 scans beside 64 KiB reads from another tenant: the only workload where runtime, I/O queue and kernels work next to the pfs gate",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	bulkOp    = 4 << 20
	bulkFile  = 256 << 20
	smallOp   = 4 << 10
	smallFile = 256 << 10
	numSmall  = 1024
	// writePatterns is how many distinct write payloads a workload
	// prepares before timing; a written range holds one of them.
	writePatterns = 4
)

// preload creates name on fs and fills it with the generator stream key
// in chunk-sized writes.
func preload(fs *dosas.FS, name string, o dosas.CreateOptions, key uint64, size, chunk int) (*dosas.File, error) {
	f, err := fs.Create(name, o)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, chunk)
	for off := 0; off < size; off += chunk {
		fill(buf, key, uint64(off))
		if err := writeFull(f, buf, uint64(off)); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return f, nil
}

// readFull and writeFull turn a short transfer into an error: every
// operation the workloads issue lies inside its file.
func readFull(f *dosas.File, p []byte, off uint64) error {
	n, err := f.ReadAt(p, off)
	if err == nil && n != len(p) {
		err = fmt.Errorf("read %d of %d bytes at %d of %s", n, len(p), off, f.Name())
	}
	return err
}

func writeFull(f *dosas.File, p []byte, off uint64) error {
	n, err := f.WriteAt(p, off)
	if err == nil && n != len(p) {
		err = fmt.Errorf("wrote %d of %d bytes at %d of %s", n, len(p), off, f.Name())
	}
	return err
}

// patterns builds the write payloads of one file: pattern v is generator
// stream (file, v) from position 0, whatever offset it is written at.
func patterns(seed int64, file uint32, size int) [][]byte {
	out := make([][]byte, writePatterns+1)
	for v := 1; v <= writePatterns; v++ {
		out[v] = make([]byte, size)
		fill(out[v], streamKey(seed, file, uint32(v)), 0)
	}
	return out
}

// ---- bulk_read / bulk_write ----

type bulk struct {
	write bool
	ref   *rawRef
	c     cluster
	fs    *dosas.FS
	f     *dosas.File
	seed  int64
	key   uint64
	pats  [][]byte
	// version[k] is the pattern chunk k holds, 0 for the preloaded
	// content. A chunk is only ever written by the client that owns it.
	version []uint8
}

func setupBulk(write bool) func(e *env) (instance, error) {
	return func(e *env) (instance, error) {
		c, err := e.start(dosas.Options{DataServers: 2})
		if err != nil {
			return nil, err
		}
		b := &bulk{write: write, c: c, seed: e.seed, key: streamKey(e.seed, 0, 0), version: make([]uint8, bulkFile/bulkOp)}
		if b.fs, err = c.connect(dosas.ClientOptions{}); err != nil {
			c.close()
			return nil, err
		}
		if b.f, err = preload(b.fs, "bulk/data", dosas.CreateOptions{Width: 2}, b.key, bulkFile, bulkOp); err != nil {
			b.close()
			return nil, err
		}
		// The reference moves what the program moves: reads leave the
		// page cache by sendfile, writes arrive in a buffer.
		req, resp, fromFile := 64, bulkOp, filepath.Join(e.dir, "reference")
		if write {
			b.pats = patterns(e.seed, 0, bulkOp)
			req, resp, fromFile = bulkOp, 64, ""
		}
		if b.ref, err = newRawRef(2, req, resp, fromFile); err != nil {
			b.close()
			return nil, err
		}
		return b, nil
	}
}

func (b *bulk) clusters() []cluster { return []cluster{b.c} }

func (b *bulk) reference(clients int) []stream { return b.ref.streams(clients) }

func (b *bulk) close() {
	if b.ref != nil {
		b.ref.close()
	}
	b.fs.Close()
	b.c.close()
}

type bulkStream struct {
	b      *bulk
	r      *rand.Rand
	id, of int // this client's index and the client count
	buf    []byte
	n      int
}

func (b *bulk) streams(clients int) []stream {
	out := make([]stream, clients)
	for i := range out {
		out[i] = &bulkStream{b: b, r: newRand(b.seed, i), id: i, of: clients, buf: make([]byte, bulkOp)}
	}
	return out
}

func (s *bulkStream) step(full bool) (uint8, error) {
	b := s.b
	chunks := len(b.version)
	s.n++
	if !b.write {
		k := s.r.Intn(chunks)
		if err := readFull(b.f, s.buf, uint64(k)*bulkOp); err != nil {
			return 0, err
		}
		if (full || s.n%sampleEvery == 0) && !check(s.buf, b.key, uint64(k)*bulkOp) {
			return 0, fmt.Errorf("read of chunk %d returned wrong bytes", k)
		}
		return 0, nil
	}
	// Writers own disjoint chunks (k ≡ id mod clients), so the recorded
	// version of a chunk is never raced.
	k := s.r.Intn(chunks/s.of)*s.of + s.id
	v := 1 + s.r.Intn(writePatterns)
	if err := writeFull(b.f, b.pats[v], uint64(k)*bulkOp); err != nil {
		return 0, err
	}
	b.version[k] = uint8(v)
	if full {
		return 0, b.chunkHolds(s.buf, k)
	}
	return 0, nil
}

// chunkHolds re-reads chunk k into buf and compares it with what the
// last write (or the preload) put there.
func (b *bulk) chunkHolds(buf []byte, k int) error {
	if err := readFull(b.f, buf, uint64(k)*bulkOp); err != nil {
		return err
	}
	ok := check(buf, b.key, uint64(k)*bulkOp)
	if v := b.version[k]; v != 0 {
		ok = bytes.Equal(buf, b.pats[v])
	}
	if !ok {
		return fmt.Errorf("chunk %d does not hold what was last written to it", k)
	}
	return nil
}

func (b *bulk) verify() (checked, failed int64) {
	if !b.write {
		return 0, 0
	}
	buf := make([]byte, bulkOp)
	for k := range b.version {
		checked++
		if b.chunkHolds(buf, k) != nil {
			failed++
		}
	}
	return checked, failed
}

func (b *bulk) report(w *window) map[string]Summary {
	out := map[string]Summary{
		"ops_per_s": w.rate("1/s", allOps, 1),
		"mbps":      w.rate("MB/s", allOps, bulkOp/1e6),
	}
	w.putLatency(out, "p50_us", allOps, 0.50)
	w.putLatency(out, "p99_us", allOps, 0.99)
	w.putRelative(out, opsVersus(allOps, allOps), opsVersus(allOps, allOps))
	return out
}

// ---- small_ops ----

// Operation kinds of small_ops.
const (
	opRead uint8 = iota
	opWrite
	opStat
	opCreate
)

type small struct {
	ref   *rawRef
	c     cluster
	fs    *dosas.FS
	seed  int64
	files []*dosas.File
	names []string
	rank  []int // Zipf rank → file index
	pats  [][]byte
	// version[f][b] is the pattern block half+b of file f holds. Reads
	// use the lower half of each file and writes the upper half, and a
	// file is only written by the client whose index matches its parity,
	// so neither a read check nor a recorded version is ever raced.
	version [][]uint8
}

const smallHalf = smallFile / smallOp / 2

func setupSmall(e *env) (instance, error) {
	c, err := e.start(dosas.Options{DataServers: 2})
	if err != nil {
		return nil, err
	}
	s := &small{c: c, seed: e.seed, pats: patterns(e.seed, numSmall, smallOp)}
	if s.fs, err = c.connect(dosas.ClientOptions{}); err != nil {
		c.close()
		return nil, err
	}
	s.rank = newRand(e.seed, -1).Perm(numSmall)
	s.files = make([]*dosas.File, numSmall)
	s.names = make([]string, numSmall)
	s.version = make([][]uint8, numSmall)
	// A file costs three round trips to create and fill; eight loaders
	// side by side keep set-up short.
	const loaders = 8
	errs := make([]error, loaders)
	var wg sync.WaitGroup
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := l; i < numSmall && errs[l] == nil; i += loaders {
				s.names[i] = fmt.Sprintf("small/f%04d", i)
				s.version[i] = make([]uint8, smallHalf)
				s.files[i], errs[l] = preload(s.fs, s.names[i], dosas.CreateOptions{}, streamKey(e.seed, uint32(i), 0), smallFile, smallFile)
			}
		}(l)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		s.close()
		return nil, err
	}
	if s.ref, err = newRawRef(2, 64, smallOp, ""); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *small) clusters() []cluster { return []cluster{s.c} }

func (s *small) reference(clients int) []stream { return s.ref.streams(clients) }

func (s *small) close() {
	if s.ref != nil {
		s.ref.close()
	}
	s.fs.Close()
	s.c.close()
}

type smallStream struct {
	s       *small
	r       *rand.Rand
	zipf    *rand.Zipf
	id, of  int
	buf     []byte
	n       int
	created int
}

func (s *small) streams(clients int) []stream {
	out := make([]stream, clients)
	for i := range out {
		r := newRand(s.seed, i)
		out[i] = &smallStream{s: s, r: r, zipf: rand.NewZipf(r, 1.1, 1, numSmall-1), id: i, of: clients, buf: make([]byte, smallOp)}
	}
	return out
}

func (st *smallStream) step(full bool) (uint8, error) {
	s := st.s
	st.n++
	file := s.rank[st.zipf.Uint64()]
	switch p := st.r.Intn(100); {
	case p < 50:
		blk := st.r.Intn(smallHalf)
		if err := readFull(s.files[file], st.buf, uint64(blk)*smallOp); err != nil {
			return opRead, err
		}
		if (full || st.n%sampleEvery == 0) && !check(st.buf, streamKey(s.seed, uint32(file), 0), uint64(blk)*smallOp) {
			return opRead, fmt.Errorf("read of %s block %d returned wrong bytes", s.names[file], blk)
		}
		return opRead, nil
	case p < 70:
		file = file/st.of*st.of + st.id // the nearest file this client owns
		blk := st.r.Intn(smallHalf)
		v := 1 + st.r.Intn(writePatterns)
		if err := writeFull(s.files[file], s.pats[v], uint64(smallHalf+blk)*smallOp); err != nil {
			return opWrite, err
		}
		s.version[file][blk] = uint8(v)
		if full {
			return opWrite, s.blockHolds(st.buf, file, blk)
		}
		return opWrite, nil
	case p < 90:
		fi, err := s.fs.Stat(s.names[file])
		if err == nil && fi.Size != smallFile {
			err = fmt.Errorf("stat %s: size %d, want %d", s.names[file], fi.Size, smallFile)
		}
		return opStat, err
	default:
		st.created++
		name := fmt.Sprintf("small/tmp-%d-%d", st.id, st.created)
		if _, err := s.fs.Create(name); err != nil {
			return opCreate, err
		}
		return opCreate, s.fs.Remove(name)
	}
}

// blockHolds re-reads written block blk of file and compares it with the
// pattern recorded for it.
func (s *small) blockHolds(buf []byte, file, blk int) error {
	if err := readFull(s.files[file], buf, uint64(smallHalf+blk)*smallOp); err != nil {
		return err
	}
	if !bytes.Equal(buf, s.pats[s.version[file][blk]]) {
		return fmt.Errorf("%s block %d does not hold what was last written to it", s.names[file], smallHalf+blk)
	}
	return nil
}

func (s *small) verify() (checked, failed int64) {
	buf := make([]byte, smallOp)
	for file, vs := range s.version {
		for blk, v := range vs {
			if v == 0 {
				continue
			}
			checked++
			if s.blockHolds(buf, file, blk) != nil {
				failed++
			}
		}
	}
	return checked, failed
}

func (s *small) report(w *window) map[string]Summary {
	out := map[string]Summary{"ops_per_s": w.rate("1/s", allOps, 1)}
	w.putLatency(out, "p50_us", kindIs(opRead), 0.50)
	w.putLatency(out, "p99_us", kindIs(opRead), 0.99)
	w.putLatency(out, "write_p50_us", kindIs(opWrite), 0.50)
	w.putLatency(out, "write_p99_us", kindIs(opWrite), 0.99)
	w.putLatency(out, "meta_p50_us", kindIs(opStat), 0.50)
	w.putLatency(out, "meta_p99_us", kindIs(opStat), 0.99)
	w.putLatency(out, "create_p50_us", kindIs(opCreate), 0.50)
	w.putRelative(out, opsVersus(kindIs(opRead), allOps), opsVersus(allOps, allOps))
	return out
}

// sum8 runs the sum8 kernel over [off, off+n) of f through ReadEx and
// checks the result against the precomputed sum.
func sum8(f *dosas.File, off, n, want uint64) error {
	res, err := f.ReadEx("sum8", nil, off, n)
	if err != nil {
		return err
	}
	if got := dosas.SumResult(res.Output); !res.Completed || got != want {
		return fmt.Errorf("sum8 of %s [%d,+%d) = %d (completed=%v), want %d", f.Name(), off, n, got, res.Completed, want)
	}
	return nil
}

// ---- active_mixed ----

const (
	scanOp     = 16 << 20
	scanFile   = 256 << 20
	victimOp   = 64 << 10
	victimFile = 64 << 20
)

// Stream indices (and kinds) of active_mixed.
const (
	mixScan uint8 = iota
	mixVictim
)

type mixed struct {
	ref           *rawRef
	c             cluster
	seed          int64
	scanFS, vicFS *dosas.FS
	scan, victim  *dosas.File
	vicKey        uint64
	sums          []uint64 // expected sum8 of each 16 MiB range
}

func setupMixed(e *env) (instance, error) {
	c, err := e.start(dosas.Options{DataServers: 2, Policy: dosas.AlwaysAccept})
	if err != nil {
		return nil, err
	}
	m := &mixed{c: c, seed: e.seed, vicKey: streamKey(e.seed, 1, 0)}
	fail := func(err error) (instance, error) {
		m.close()
		return nil, err
	}
	if m.scanFS, err = c.connect(dosas.ClientOptions{Scheme: dosas.AS, Tenant: "scan"}); err != nil {
		return fail(err)
	}
	if m.vicFS, err = c.connect(dosas.ClientOptions{Tenant: "victim"}); err != nil {
		return fail(err)
	}
	scanKey := streamKey(e.seed, 0, 0)
	if m.scan, err = preload(m.scanFS, "mixed/scan", dosas.CreateOptions{Width: 2}, scanKey, scanFile, scanOp); err != nil {
		return fail(err)
	}
	if m.victim, err = preload(m.vicFS, "mixed/victim", dosas.CreateOptions{Width: 2}, m.vicKey, victimFile, bulkOp); err != nil {
		return fail(err)
	}
	buf := make([]byte, scanOp)
	for off := 0; off < scanFile; off += scanOp {
		fill(buf, scanKey, uint64(off))
		m.sums = append(m.sums, byteSum(buf))
	}
	if m.ref, err = newRawRef(1, 64, victimOp, filepath.Join(e.dir, "reference")); err != nil {
		return fail(err)
	}
	return m, nil
}

func (m *mixed) clusters() []cluster { return []cluster{m.c} }

// reference mirrors the load without the program: 64 KiB exchanges sent
// by sendfile, next to a goroutine that sums a buffer over and over as
// the scan's kernel does.
func (m *mixed) reference(int) []stream {
	return []stream{&sumStream{buf: make([]byte, sumOp)}, mixedRaw{m.ref.streams(1)[0]}}
}

// sumOp is how much the reference's stand-in for the scan tenant sums per
// operation: small, so a 50 ms phase holds many.
const sumOp = 1 << 20

type sumStream struct {
	buf   []byte
	total uint64
}

func (s *sumStream) step(bool) (uint8, error) {
	s.total += byteSum(s.buf)
	return mixScan, nil
}

// mixedRaw labels the raw exchanges as the victim's counterpart.
type mixedRaw struct{ stream }

func (r mixedRaw) step(full bool) (uint8, error) {
	_, err := r.stream.step(full)
	return mixVictim, err
}

func (m *mixed) close() {
	if m.ref != nil {
		m.ref.close()
	}
	if m.scanFS != nil {
		m.scanFS.Close()
	}
	if m.vicFS != nil {
		m.vicFS.Close()
	}
	m.c.close()
}

func (m *mixed) streams(int) []stream {
	return []stream{
		&scanStream{m: m, r: newRand(m.seed, 0)},
		&victimStream{m: m, r: newRand(m.seed, 1), buf: make([]byte, victimOp)},
	}
}

type scanStream struct {
	m *mixed
	r *rand.Rand
}

func (s *scanStream) step(bool) (uint8, error) {
	k := s.r.Intn(len(s.m.sums))
	return mixScan, sum8(s.m.scan, uint64(k)*scanOp, scanOp, s.m.sums[k])
}

type victimStream struct {
	m   *mixed
	r   *rand.Rand
	buf []byte
	n   int
}

func (s *victimStream) step(full bool) (uint8, error) {
	s.n++
	off := uint64(s.r.Intn(victimFile/victimOp)) * victimOp
	if err := readFull(s.m.victim, s.buf, off); err != nil {
		return mixVictim, err
	}
	if (full || s.n%sampleEvery == 0) && !check(s.buf, s.m.vicKey, off) {
		return mixVictim, fmt.Errorf("victim read at %d returned wrong bytes", off)
	}
	return mixVictim, nil
}

func (m *mixed) verify() (int64, int64) { return 0, 0 }

func (m *mixed) report(w *window) map[string]Summary {
	out := map[string]Summary{
		"ops_per_s": w.rate("1/s", kindIs(mixVictim), 1),
		"scan_mbps": w.rate("MB/s", kindIs(mixScan), scanOp/1e6),
	}
	w.putLatency(out, "p50_us", kindIs(mixVictim), 0.50)
	w.putLatency(out, "p99_us", kindIs(mixVictim), 0.99)
	victim := opsVersus(kindIs(mixVictim), kindIs(mixVictim))
	w.putRelative(out, victim, victim, versus{kindIs(mixScan), kindIs(mixScan), scanOp, sumOp})
	return out
}

// ---- active_sched ----

const (
	schedReq   = 2 << 20
	schedWide  = 8 // the contended batch size; the other is 1
	schedRate  = 20e6
	schedLink  = 30e6
	schedCells = 6 // (TS, AS, DOSAS) × (n=1, n=8), one round
)

var schedSchemes = []struct {
	scheme dosas.Scheme
	policy dosas.Policy
}{
	{dosas.TS, dosas.AlwaysBounce},
	{dosas.AS, dosas.AlwaysAccept},
	{dosas.DOSAS, dosas.Dynamic},
}

type sched struct {
	cs    []cluster
	fss   []*dosas.FS
	files []*dosas.File
	sums  []uint64
}

// setupSched boots one single-node cluster per scheme — sum8 paced to
// 20 MB/s against a 30 MB/s link puts the TS/AS crossover at n = 3 — and
// preloads the same 16 MiB into each.
func setupSched(e *env) (instance, error) {
	kernels.SetRate("sum8", schedRate)
	s := &sched{}
	key := streamKey(e.seed, 0, 0)
	for _, sp := range schedSchemes {
		c, err := e.start(dosas.Options{DataServers: 1, Policy: sp.policy, LinkRate: schedLink, Pace: true})
		if err != nil {
			s.close()
			return nil, err
		}
		s.cs = append(s.cs, c)
		fs, err := c.connect(dosas.ClientOptions{Scheme: sp.scheme, Pace: true})
		if err != nil {
			s.close()
			return nil, err
		}
		s.fss = append(s.fss, fs)
	}
	// The preloads cross the shaped links, so they run side by side.
	s.files = make([]*dosas.File, len(s.fss))
	errs := make([]error, len(s.fss))
	var wg sync.WaitGroup
	for i, fs := range s.fss {
		wg.Add(1)
		go func(i int, fs *dosas.FS) {
			defer wg.Done()
			s.files[i], errs[i] = preload(fs, "sched/data", dosas.CreateOptions{Width: 1}, key, schedWide*schedReq, schedReq)
		}(i, fs)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.close()
			return nil, err
		}
	}
	buf := make([]byte, schedReq)
	for r := 0; r < schedWide; r++ {
		fill(buf, key, uint64(r)*schedReq)
		s.sums = append(s.sums, byteSum(buf))
	}
	return s, nil
}

func (s *sched) clusters() []cluster { return s.cs }

// reference is nil: the static schemes running in the same rounds are
// the reference DOSAS is compared with.
func (s *sched) reference(int) []stream { return nil }

func (s *sched) close() {
	for _, fs := range s.fss {
		fs.Close()
	}
	for _, c := range s.cs {
		c.close()
	}
	kernels.ResetRates()
}

// streams returns the single stream of active_sched. One step is one
// batch of n concurrent requests on one scheme's cluster; successive
// steps walk the cells TS, AS, DOSAS at n=1, then at n=8. The n
// outstanding requests are the paper's independent variable, not a
// client count.
func (s *sched) streams(int) []stream { return []stream{&schedStream{s: s}} }

type schedStream struct {
	s    *sched
	cell int
}

// schedKind numbers the cells of a round: scheme index + 3 for n=8.
func schedKind(scheme int, wide bool) uint8 {
	if wide {
		return uint8(scheme + len(schedSchemes))
	}
	return uint8(scheme)
}

func (st *schedStream) step(bool) (uint8, error) {
	kind := uint8(st.cell % schedCells)
	st.cell++
	scheme, n := int(kind)%len(schedSchemes), 1
	if int(kind) >= len(schedSchemes) {
		n = schedWide
	}
	return kind, st.s.batch(scheme, n)
}

// batch issues n concurrent ReadEx calls on one scheme's file, waits for
// all of them, and checks every sum.
func (s *sched) batch(scheme, n int) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = sum8(s.files[scheme], uint64(r)*schedReq, schedReq, s.sums[r])
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (s *sched) verify() (int64, int64) { return 0, 0 }

// report computes active_sched's metrics per batch, not per time slice:
// every batch of a cell that completed in the window is one value of that
// cell's makespan, and the reported value is their median (a 15 s window
// holds six of each).
func (s *sched) report(w *window) map[string]Summary {
	var cells [schedCells][]float64 // makespans in seconds
	for _, sm := range w.streams[0] {
		cells[sm.kind] = append(cells[sm.kind], float64(sm.lat)/1e9)
	}
	makespan := func(scheme int, wide bool) Summary {
		vals := cells[schedKind(scheme, wide)]
		return summarize("s", vals, len(vals))
	}
	const ts, as, ds = 0, 1, 2
	out := map[string]Summary{}
	for _, wide := range []bool{false, true} {
		suffix := "n1"
		if wide {
			suffix = "n8"
		}
		static := [2]Summary{makespan(ts, wide), makespan(as, wide)}
		out["ts_makespan_"+suffix+"_s"], out["as_makespan_"+suffix+"_s"] = static[ts], static[as]
		out["makespan_"+suffix+"_s"] = makespan(ds, wide)
		// Regret divides by the static schemes' medians, so one slow
		// static batch does not make the dynamic scheme look good.
		best := min(static[ts].Value, static[as].Value)
		out["regret_"+suffix] = scaled(out["makespan_"+suffix+"_s"], "ratio", func(v float64) float64 { return v / best })
	}
	// DOSAS requests per second of batch time: one n=1 batch and one n=8
	// batch, paired in the order they ran.
	n1, n8 := cells[schedKind(ds, false)], cells[schedKind(ds, true)]
	pairs := make([]float64, min(len(n1), len(n8)))
	for i := range pairs {
		pairs[i] = (1 + schedWide) / (n1[i] + n8[i])
	}
	out["ops_per_s"] = summarize("1/s", pairs, len(pairs))
	// The gated pair, relative to the better static scheme of the same
	// window: throughput at n=8 and latency at n=1.
	out["rel_throughput"] = scaled(out["regret_n8"], "ratio", func(v float64) float64 { return 1 / v })
	out["rel_latency"] = out["regret_n1"]
	return out
}

// scaled maps every slice of a Summary through f.
func scaled(s Summary, unit string, f func(float64) float64) Summary {
	vals := make([]float64, len(s.Slices))
	for i, v := range s.Slices {
		vals[i] = f(v)
	}
	return summarize(unit, vals, s.Samples)
}
