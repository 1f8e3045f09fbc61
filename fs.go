package dosas

import (
	"errors"
	"fmt"
	"io"
	"time"

	"dosas/internal/core"
	"dosas/internal/pfs"
)

// Common errors surfaced by the public API.
var (
	// ErrNotFound reports a missing file.
	ErrNotFound = errors.New("dosas: file not found")
	// ErrExists reports a name collision on create.
	ErrExists = errors.New("dosas: file already exists")
)

func mapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case pfs.IsNotFound(err):
		return fmt.Errorf("%w (%v)", ErrNotFound, err)
	case pfs.IsExists(err):
		return fmt.Errorf("%w (%v)", ErrExists, err)
	default:
		return err
	}
}

// FS is a client of a DOSAS cluster: the parallel file system plus the
// Active Storage Client that serves ReadEx calls.
type FS struct {
	pc     *pfs.Client
	asc    *core.Client
	scheme Scheme
}

// Scheme reports the scheme this client was connected with.
func (fs *FS) Scheme() Scheme { return fs.scheme }

// Close stops the client's telemetry sampler and releases its
// connections.
func (fs *FS) Close() {
	fs.asc.Close()
	fs.pc.Close()
}

// CreateOptions tune file creation.
type CreateOptions struct {
	// StripeSize in bytes; 0 takes the cluster default.
	StripeSize uint32
	// Width is how many storage nodes to stripe over; 0 means all.
	// Width 1 places the whole file on a single node — required for
	// operations without a combiner (e.g. downsample) and for exact
	// Gaussian filtering of whole images.
	Width int
	// Replicas keeps this many copies of every stripe on distinct
	// storage nodes (0 and 1 both mean none). Reads, active reads, and
	// FilterImage fail over to surviving replicas when a node dies;
	// writes go to all copies. Must not exceed the stripe width.
	Replicas int
}

// Create makes a new striped file.
func (fs *FS) Create(name string, opts ...CreateOptions) (*File, error) {
	var o CreateOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	var pf *pfs.File
	var err error
	if o.Replicas > 1 {
		pf, err = fs.pc.CreateReplicated(name, o.StripeSize, o.Width, o.Replicas)
	} else {
		pf, err = fs.pc.Create(name, o.StripeSize, o.Width)
	}
	if err != nil {
		return nil, mapErr(err)
	}
	return &File{fs: fs, pf: pf}, nil
}

// Open looks an existing file up by name.
func (fs *FS) Open(name string) (*File, error) {
	pf, err := fs.pc.Open(name)
	if err != nil {
		return nil, mapErr(err)
	}
	return &File{fs: fs, pf: pf}, nil
}

// FileInfo describes a file.
type FileInfo struct {
	Name       string
	Size       uint64
	ModTime    time.Time
	StripeSize uint32
	Width      int
	Replicas   int
}

// Stat returns metadata for name.
func (fs *FS) Stat(name string) (FileInfo, error) {
	st, err := fs.pc.Stat(name)
	if err != nil {
		return FileInfo{}, mapErr(err)
	}
	return FileInfo{
		Name:       name,
		Size:       st.Size,
		ModTime:    time.Unix(0, st.ModUnixN),
		StripeSize: st.Layout.StripeSize,
		Width:      len(st.Layout.Servers),
		Replicas:   st.Layout.ReplicaCount(),
	}, nil
}

// Remove deletes a file and its stripes: one round trip to the metadata
// server, then one to each data server holding a stripe below the file's
// recorded size (none for a file never written). Every byte a WriteAt
// acknowledged is gone when Remove returns; bytes of a write that was
// never acknowledged, and stripes on a data server that is down, may stay.
func (fs *FS) Remove(name string) error { return mapErr(fs.pc.Remove(name)) }

// Issue is one inconsistency found by Verify.
type Issue = pfs.Issue

// VerifyReport summarises a consistency check of one file.
type VerifyReport = pfs.Report

// Verify checks a file's on-cluster consistency: every stripe stream (and
// every replica) must have the length the layout implies; with deep set,
// replica contents are compared byte-for-byte.
func (fs *FS) Verify(name string, deep bool) (*VerifyReport, error) {
	rep, err := fs.pc.Verify(name, deep)
	return rep, mapErr(err)
}

// Repair restores damaged replica streams from an intact copy and returns
// the post-repair verification report.
func (fs *FS) Repair(name string) (*VerifyReport, error) {
	rep, err := fs.pc.Repair(name)
	return rep, mapErr(err)
}

// List returns file names with the given prefix, sorted.
func (fs *FS) List(prefix string) ([]string, error) {
	names, err := fs.pc.List(prefix)
	return names, mapErr(err)
}

// ReadExMany runs one combinable operation over every named file in full
// and combines the outputs into a single result — dataset-wide statistics
// (an ensemble sweep) as one call. Per-file and per-storage-node pieces
// run concurrently under the client's scheme.
func (fs *FS) ReadExMany(names []string, op string, params []byte) (*Result, error) {
	files := make([]*pfs.File, len(names))
	for i, name := range names {
		pf, err := fs.pc.Open(name)
		if err != nil {
			return nil, mapErr(err)
		}
		files[i] = pf
	}
	res, err := fs.asc.ActiveReadMany(files, op, params)
	if err != nil {
		return nil, err
	}
	out := &Result{Completed: res.Completed, Output: res.Output, Elapsed: res.Elapsed, TraceID: res.TraceID}
	for _, p := range res.Parts {
		out.Parts = append(out.Parts, Part{
			Server: p.Server, Bytes: p.Bytes, Where: p.Where, BytesShipped: p.BytesShipped,
		})
	}
	return out, nil
}

// Where reports where an active read part executed.
type Where = core.Where

// Execution sites for Result parts.
const (
	// OnStorage: the kernel ran on the storage node.
	OnStorage = core.OnStorage
	// OnCompute: the request bounced and the kernel ran on the client.
	OnCompute = core.OnCompute
	// Migrated: the kernel was interrupted on the storage node and
	// finished on the client from its checkpoint.
	Migrated = core.Migrated
)

// Part describes one per-storage-node piece of an active read.
type Part struct {
	Server       uint32
	Bytes        uint64
	Where        Where
	BytesShipped uint64
}

// Result is the outcome of ReadEx: the combined kernel output plus
// execution provenance. Completed is always true when ReadEx returns —
// bounced and interrupted parts were finished client-side — mirroring the
// paper's struct result after ASC post-processing.
type Result struct {
	Completed bool
	Output    []byte
	Parts     []Part
	Elapsed   time.Duration
	// TraceID identifies the distributed trace this read produced; feed
	// it to FS.TraceEvents / Cluster.TraceTimeline to reconstruct the
	// cross-node timeline.
	TraceID uint64
}

// BytesShipped totals raw network movement across parts.
func (r *Result) BytesShipped() uint64 {
	var n uint64
	for _, p := range r.Parts {
		n += p.BytesShipped
	}
	return n
}

// File is an open striped file.
type File struct {
	fs  *FS
	pf  *pfs.File
	pos uint64
}

// Name returns the file's name.
func (f *File) Name() string { return f.pf.Name() }

// Size returns the file size as known to this client.
func (f *File) Size() uint64 { return f.pf.Size() }

// StripeWidth reports how many storage nodes the file spans.
func (f *File) StripeWidth() int { return len(f.pf.Layout().Servers) }

// Replicas reports how many copies of each stripe the file keeps.
func (f *File) Replicas() int { return f.pf.Layout().ReplicaCount() }

// WriteAt stores p at offset off.
func (f *File) WriteAt(p []byte, off uint64) (int, error) {
	return f.pf.WriteAt(p, off)
}

// ReadAt fills p from offset off, returning a short count at EOF.
func (f *File) ReadAt(p []byte, off uint64) (int, error) {
	return f.pf.ReadAt(p, off)
}

// Write appends at the file cursor (io.Writer).
func (f *File) Write(p []byte) (int, error) {
	n, err := f.pf.WriteAt(p, f.pos)
	f.pos += uint64(n)
	return n, err
}

// Read reads at the file cursor (io.Reader), returning io.EOF at the end.
func (f *File) Read(p []byte) (int, error) {
	if f.pos >= f.Size() {
		return 0, io.EOF
	}
	n, err := f.pf.ReadAt(p, f.pos)
	f.pos += uint64(n)
	if err == nil && n == 0 {
		return 0, io.EOF
	}
	return n, err
}

// Seek repositions the cursor (io.Seeker).
func (f *File) Seek(offset int64, whence int) (int64, error) {
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = int64(f.pos)
	case io.SeekEnd:
		base = int64(f.Size())
	default:
		return 0, fmt.Errorf("dosas: bad whence %d", whence)
	}
	np := base + offset
	if np < 0 {
		return 0, fmt.Errorf("dosas: negative seek position")
	}
	f.pos = uint64(np)
	return np, nil
}

// ReadAll reads the whole file.
func (f *File) ReadAll() ([]byte, error) { return f.pf.ReadAll() }

// TransformInfo reports a completed TransformTo.
type TransformInfo struct {
	// BytesWritten is the total output written on the storage nodes.
	BytesWritten uint64
	Elapsed      time.Duration
}

// TransformTo runs a size-preserving operation (e.g. full-image
// "gaussian2d") over the whole file on its storage nodes and writes the
// output to a new file dstName with the identical stripe layout. Neither
// input nor output crosses the network — active write-back. Returns the
// new file.
func (f *File) TransformTo(dstName, op string, params []byte) (*File, TransformInfo, error) {
	dst, res, err := f.fs.asc.Transform(f.pf, dstName, op, params)
	if err != nil {
		return nil, TransformInfo{}, mapErr(err)
	}
	return &File{fs: f.fs, pf: dst}, TransformInfo{
		BytesWritten: res.BytesWritten,
		Elapsed:      res.Elapsed,
	}, nil
}

// FilterImage runs a bit-exact 3×3 Gaussian over the whole file as an
// 8-bit image with the given row width, even when the image is striped
// across many storage nodes: each node filters its stripe bands with
// one-row halos fetched from the neighbouring bands. The stripe size must
// be a multiple of the row width. Returns the full filtered image.
func (f *File) FilterImage(width uint32) ([]byte, error) {
	return f.fs.asc.FilteredImage(f.pf, width)
}

// ReadEx runs operation op with kernel parameters params over the file
// range [off, off+length) — the library form of the paper's
// MPI_File_read_ex. Under the TS scheme the data is read and the kernel
// runs locally; under AS it is offloaded to the storage nodes; under
// DOSAS each storage node's policy decides, and bounced or interrupted
// work completes transparently on the client.
func (f *File) ReadEx(op string, params []byte, off, length uint64) (*Result, error) {
	res, err := f.fs.asc.ActiveRead(f.pf, off, length, op, params)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Completed: res.Completed,
		Output:    res.Output,
		Elapsed:   res.Elapsed,
		TraceID:   res.TraceID,
		Parts:     make([]Part, len(res.Parts)),
	}
	for i, p := range res.Parts {
		out.Parts[i] = Part{
			Server:       p.Server,
			Bytes:        p.Bytes,
			Where:        p.Where,
			BytesShipped: p.BytesShipped,
		}
	}
	return out, nil
}

var (
	_ io.Reader = (*File)(nil)
	_ io.Writer = (*File)(nil)
	_ io.Seeker = (*File)(nil)
)
