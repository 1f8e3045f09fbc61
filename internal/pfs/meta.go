package pfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"dosas/internal/eventlog"
	"dosas/internal/ioqueue"
	"dosas/internal/metrics"
	"dosas/internal/slo"
	"dosas/internal/telemetry"
	"dosas/internal/tsdb"
	"dosas/internal/wire"
)

// FileRec is the metadata server's record for one file.
type FileRec struct {
	Handle  uint64
	Name    string
	Size    uint64
	ModTime time.Time
	Layout  wire.Layout
}

// MetaConfig configures a metadata server.
type MetaConfig struct {
	// NumDataServers is the size of the cluster's data-server table;
	// layouts stripe over indices [0, NumDataServers).
	NumDataServers int
	// DefaultStripeSize is used when a create does not specify one.
	// Defaults to 64 KiB.
	DefaultStripeSize uint32
	// JournalPath, when non-empty, makes the namespace durable: every
	// mutation is appended to a write-ahead journal that is replayed on
	// startup.
	JournalPath string
	// Metrics receives operation counters; optional.
	Metrics *metrics.Registry
	// Telemetry is the node's time-series sampler, served to operators
	// as the series introspection. The metadata server registers its
	// op-rate probes on it, starts it, and owns it: Close stops it.
	// Optional.
	Telemetry *telemetry.Sampler
	// Events is the node's structured event log, served to operators as
	// the events introspection. Startup and journal lifecycle are
	// recorded on it. Optional.
	Events *eventlog.Log
	// SLO is the node's alert engine, served as the alerts introspection
	// and contributing readiness checks to health. Optional.
	SLO *slo.Engine
	// Archive is the node's durable telemetry archive, served as the
	// query introspection. Owned by the node builder (dosas.Node); nil
	// when the node runs without -archive-dir.
	Archive *tsdb.Archive
	// QoS, when non-nil, admits namespace lookups (open/stat/list)
	// through a weighted-fair gate on the metadata class, so one
	// tenant's stat storm queues against its own credit instead of
	// starving everyone's path resolution.
	QoS *QoSConfig
}

// DefaultStripeSize is the stripe size used when callers pass zero.
const DefaultStripeSize = 64 << 10

// MetaServer implements the namespace half of the parallel file system:
// create/open/stat/remove/list plus size tracking, with round-robin layout
// assignment over the cluster's data servers.
type MetaServer struct {
	cfg  MetaConfig
	gate *QoSGate // nil when QoS is disabled
	planes

	journal    *journal // nil when volatile; see mutate
	mu         sync.Mutex
	byName     map[string]*FileRec
	byHandle   map[uint64]*FileRec
	nextHandle uint64
	now        func() time.Time
}

// NewMetaServer builds a metadata server, replaying the journal when one is
// configured.
func NewMetaServer(cfg MetaConfig) (*MetaServer, error) {
	if cfg.NumDataServers <= 0 {
		return nil, fmt.Errorf("%w: metadata server needs at least one data server", ErrInvalid)
	}
	if cfg.DefaultStripeSize == 0 {
		cfg.DefaultStripeSize = DefaultStripeSize
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	m := &MetaServer{
		cfg:        cfg,
		byName:     make(map[string]*FileRec),
		byHandle:   make(map[uint64]*FileRec),
		nextHandle: 1,
		now:        time.Now,
		planes: planes{
			node: "meta", role: "meta", started: time.Now(), reg: cfg.Metrics,
			tele: cfg.Telemetry, events: cfg.Events, slo: cfg.SLO, archive: cfg.Archive,
		},
	}
	if cfg.QoS != nil {
		m.gate = NewQoSGate(*cfg.QoS)
	}
	if cfg.JournalPath != "" {
		j, err := openJournal(cfg.JournalPath, m.reg, cfg.Events)
		if err != nil {
			return nil, err
		}
		m.journal = j
		if err := j.replay(m.applyEntry); err != nil {
			return nil, err
		}
		cfg.Events.Info("meta", "journal replayed",
			"path", cfg.JournalPath, "files", fmt.Sprint(len(m.byName)))
	}
	m.registerProbes()
	cfg.Telemetry.Start()
	cfg.Events.Info("meta", "namespace server started",
		"data_servers", fmt.Sprint(cfg.NumDataServers))
	return m, nil
}

// registerProbes wires the namespace server's sampler probes: the op
// rate over all mutating and reading verbs, and the live file count.
func (m *MetaServer) registerProbes() {
	s := m.cfg.Telemetry
	if s == nil {
		return
	}
	ops := func() float64 {
		var total int64
		for _, n := range []string{"meta.create", "meta.open", "meta.stat", "meta.remove", "meta.list", "meta.setsize"} {
			total += m.reg.Counter(n).Value()
		}
		return float64(total)
	}
	s.Register("meta.ops_per_sec", telemetry.RateProbe(ops, s.Interval()))
	s.Register("meta.files", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(len(m.byName))
	})
	if m.gate != nil {
		s.Register("qos.throttled", telemetry.RateProbe(func() float64 {
			return float64(m.gate.Stats().Throttled)
		}, s.Interval()))
		s.Register("qos.deficit", func() float64 {
			return float64(m.gate.Stats().DeficitBytes)
		})
		s.Register("qos.queued", func() float64 {
			return float64(m.gate.Stats().MetaLen)
		})
	}
}

// admit passes one namespace lookup through the metadata QoS gate.
// Namespace ops are priced flat — one stat costs what one stat costs —
// so the WDRR credit divides lookup slots, not bytes.
func (m *MetaServer) admit(tenantID string) (*Ticket, error) {
	if m.gate == nil {
		return nil, nil
	}
	tk := m.gate.Enqueue(ioqueue.Meta, tenantID, 1)
	if !tk.Wait() {
		return nil, fmt.Errorf("%w: metadata lookup", ErrCancelled)
	}
	return tk, nil
}

// Metrics returns the server's metric registry.
func (m *MetaServer) Metrics() *metrics.Registry { return m.reg }

// Close stops the sampler, closes the QoS gate (later lookups fail open)
// and releases the journal.
func (m *MetaServer) Close() error {
	m.cfg.Telemetry.Close()
	m.gate.Close()
	if m.journal != nil {
		return m.journal.close()
	}
	return nil
}

// Handle implements the Handler interface for wire messages.
func (m *MetaServer) Handle(msg wire.Message) (wire.Message, error) {
	switch req := msg.(type) {
	case *wire.Ping:
		return &wire.Pong{Seq: req.Seq}, nil
	case *wire.CreateReq:
		return m.create(req)
	case *wire.OpenReq:
		return m.open(req)
	case *wire.StatReq:
		return m.stat(req)
	case *wire.RemoveReq:
		return m.remove(req)
	case *wire.ListReq:
		return m.list(req)
	case *wire.SetSizeReq:
		return m.setSize(req)
	case *wire.IntrospectReq:
		return m.introspect(req, m)
	default:
		return nil, fmt.Errorf("%w: metadata server got %v", ErrUnsupported, msg.Type())
	}
}

// healthChecks implements introspectHook with namespace readiness: the
// in-memory tables are always live once construction succeeded, and the
// journal — when configured — must not have failed for mutations to be
// accepted.
func (m *MetaServer) healthChecks() []telemetry.Check {
	m.mu.Lock()
	files := len(m.byName)
	m.mu.Unlock()
	checks := []telemetry.Check{
		{Name: "namespace", OK: true, Detail: fmt.Sprintf("%d files", files)},
	}
	if j := m.journal; j != nil {
		c := telemetry.Check{Name: "journal", OK: true, Detail: m.cfg.JournalPath}
		j.mu.Lock()
		if j.err != nil {
			c.OK, c.Detail = false, j.err.Error()
		}
		j.mu.Unlock()
		checks = append(checks, c)
	} else {
		checks = append(checks, telemetry.Check{Name: "journal", OK: true, Detail: "volatile (no journal configured)"})
	}
	return append(checks, m.cfg.SLO.Checks()...)
}

// statsMode implements introspectHook: a metadata server has no
// scheduling mode and mirrors no counters.
func (m *MetaServer) statsMode() string { return "" }

func (m *MetaServer) create(req *wire.CreateReq) (wire.Message, error) {
	m.reg.Counter("meta.create").Inc()
	if req.Name == "" {
		return nil, fmt.Errorf("%w: empty file name", ErrInvalid)
	}
	return m.mutate(func() (wire.Message, uint64, error) {
		if _, ok := m.byName[req.Name]; ok {
			return nil, 0, fmt.Errorf("%w: %s", ErrExists, req.Name)
		}
		ss := req.StripeSize
		if ss == 0 {
			ss = m.cfg.DefaultStripeSize
		}
		var servers []uint32
		if len(req.Placement) > 0 {
			// Explicit placement: validate and honour as-is.
			for _, idx := range req.Placement {
				if int(idx) >= m.cfg.NumDataServers {
					return nil, 0, fmt.Errorf("%w: placement index %d out of range", ErrInvalid, idx)
				}
			}
			servers = append([]uint32(nil), req.Placement...)
		} else {
			width := int(req.Width)
			if width <= 0 || width > m.cfg.NumDataServers {
				width = m.cfg.NumDataServers
			}
			// Rotate the starting server with the handle so small files
			// spread across the cluster instead of hammering server 0.
			start := int(m.nextHandle) % m.cfg.NumDataServers
			servers = make([]uint32, width)
			for i := range servers {
				servers[i] = uint32((start + i) % m.cfg.NumDataServers)
			}
		}
		reps := int(req.Replicas)
		if reps < 1 {
			reps = 1
		}
		if reps > len(servers) {
			return nil, 0, fmt.Errorf("%w: %d replicas exceed stripe width %d", ErrInvalid, reps, len(servers))
		}
		rec := &FileRec{
			Handle:  m.nextHandle,
			Name:    req.Name,
			ModTime: m.now(),
			Layout:  wire.Layout{StripeSize: ss, Servers: servers, Replicas: uint8(reps)},
		}
		seq, err := m.journal.enqueue(entryCreate, rec)
		if err == nil {
			m.nextHandle++
			m.byName[rec.Name] = rec
			m.byHandle[rec.Handle] = rec
		}
		return &wire.CreateResp{Handle: rec.Handle, Layout: rec.Layout}, seq, err
	})
}

func (m *MetaServer) open(req *wire.OpenReq) (wire.Message, error) {
	m.reg.Counter("meta.open").Inc()
	tk, err := m.admit(req.Tenant)
	if err != nil {
		return nil, err
	}
	defer tk.Release()
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.byName[req.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, req.Name)
	}
	return &wire.OpenResp{Handle: rec.Handle, Size: rec.Size, Layout: rec.Layout}, nil
}

func (m *MetaServer) stat(req *wire.StatReq) (wire.Message, error) {
	m.reg.Counter("meta.stat").Inc()
	tk, err := m.admit(req.Tenant)
	if err != nil {
		return nil, err
	}
	defer tk.Release()
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.byName[req.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, req.Name)
	}
	return &wire.StatResp{
		Handle:   rec.Handle,
		Size:     rec.Size,
		ModUnixN: rec.ModTime.UnixNano(),
		Layout:   rec.Layout,
	}, nil
}

func (m *MetaServer) remove(req *wire.RemoveReq) (wire.Message, error) {
	m.reg.Counter("meta.remove").Inc()
	return m.mutate(func() (wire.Message, uint64, error) {
		rec, ok := m.byName[req.Name]
		if !ok {
			return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, req.Name)
		}
		seq, err := m.journal.enqueue(entryRemove, rec)
		if err == nil {
			delete(m.byName, rec.Name)
			delete(m.byHandle, rec.Handle)
		}
		return &wire.RemoveResp{Handle: rec.Handle, Layout: rec.Layout}, seq, err
	})
}

func (m *MetaServer) list(req *wire.ListReq) (wire.Message, error) {
	m.reg.Counter("meta.list").Inc()
	tk, err := m.admit(req.Tenant)
	if err != nil {
		return nil, err
	}
	defer tk.Release()
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for name := range m.byName {
		if strings.HasPrefix(name, req.Prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return &wire.ListResp{Names: names}, nil
}

func (m *MetaServer) setSize(req *wire.SetSizeReq) (wire.Message, error) {
	m.reg.Counter("meta.setsize").Inc()
	return m.mutate(func() (_ wire.Message, seq uint64, err error) {
		rec, ok := m.byHandle[req.Handle]
		if !ok {
			return nil, 0, fmt.Errorf("%w: handle %d", ErrNotFound, req.Handle)
		}
		// Max semantics: concurrent extending writers converge without
		// coordination, and a stale smaller update can never shrink the file.
		if req.Size > rec.Size {
			grown := *rec
			grown.Size, grown.ModTime = req.Size, m.now()
			if seq, err = m.journal.enqueue(entrySetSize, &grown); err == nil {
				*rec = grown
			}
		} else {
			seq = m.journal.enqueued() // the size answered may not be durable yet
		}
		return &wire.SetSizeResp{Size: rec.Size}, seq, err
	})
}

// mutate runs apply under m.mu — it validates a mutation, enqueues its
// journal entry and, unless that was refused, applies it — and lets the
// response out only once, the lock released, that entry is durable.
func (m *MetaServer) mutate(apply func() (wire.Message, uint64, error)) (wire.Message, error) {
	m.mu.Lock()
	resp, seq, err := apply()
	m.mu.Unlock()
	if err == nil {
		err = m.journal.commit(seq)
	}
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// applyEntry rebuilds in-memory state from one replayed journal entry.
func (m *MetaServer) applyEntry(op uint8, rec *FileRec) error {
	switch op {
	case entryCreate:
		m.byName[rec.Name] = rec
		m.byHandle[rec.Handle] = rec
		if rec.Handle >= m.nextHandle {
			m.nextHandle = rec.Handle + 1
		}
	case entryRemove:
		delete(m.byName, rec.Name)
		delete(m.byHandle, rec.Handle)
	case entrySetSize:
		if cur, ok := m.byHandle[rec.Handle]; ok {
			cur.Size = rec.Size
			cur.ModTime = rec.ModTime
		}
	default:
		return fmt.Errorf("pfs: journal: unknown entry op %d", op)
	}
	return nil
}

// CompactJournal rewrites the write-ahead journal as a snapshot of the
// live namespace, reclaiming the space of removed files and superseded
// updates. No-op when the server runs without a journal.
func (m *MetaServer) CompactJournal() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.journal == nil {
		return nil
	}
	records := make([]*FileRec, 0, len(m.byName))
	for _, rec := range m.byName {
		records = append(records, rec)
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Handle < records[j].Handle })
	issued := m.nextHandle - 1
	if _, live := m.byHandle[issued]; live {
		issued = 0 // its create entry is in the snapshot
	}
	if err := m.journal.compact(records, issued); err != nil {
		m.cfg.Events.Error("meta", "journal compaction failed", "err", err.Error())
		return err
	}
	m.cfg.Events.Info("meta", "journal compacted", "files", fmt.Sprint(len(records)))
	return nil
}

// Files returns a snapshot of all records, for inspection and tests.
func (m *MetaServer) Files() []FileRec {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]FileRec, 0, len(m.byName))
	for _, rec := range m.byName {
		out = append(out, *rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
