package wire

import "sync/atomic"

// Status codes carried by ErrorMsg. These travel on the wire; append only.
const (
	StatusOK uint32 = iota
	StatusNotFound
	StatusExists
	StatusInvalid
	StatusOverloaded
	StatusInternal
	StatusUnsupported
	StatusCancelled
)

// ErrorMsg is the generic failure response for any request.
type ErrorMsg struct {
	Code   uint32 // one of the Status* codes
	Op     string // the operation that failed, e.g. "open"
	Detail string // human-readable context
}

func (*ErrorMsg) Type() MsgType { return MsgError }

func (m *ErrorMsg) Fields(c *Codec) {
	c.U32(&m.Code)
	c.String(&m.Op)
	c.String(&m.Detail)
}

// Ping is a liveness probe; the peer answers with Pong echoing Seq.
type Ping struct{ Seq uint64 }

func (*Ping) Type() MsgType     { return MsgPing }
func (m *Ping) Fields(c *Codec) { c.U64(&m.Seq) }

// Pong answers a Ping.
type Pong struct{ Seq uint64 }

func (*Pong) Type() MsgType     { return MsgPong }
func (m *Pong) Fields(c *Codec) { c.U64(&m.Seq) }

// Layout describes how a file's bytes are striped across data servers:
// round-robin stripes of StripeSize bytes over Servers, in order. With
// Replicas > 1, replica r of the stripe owned by slot s lives on
// Servers[(s+r) mod len(Servers)] under a replica-tagged handle.
type Layout struct {
	StripeSize uint32
	Servers    []uint32 // indices into the cluster's data-server table
	Replicas   uint8    // copies of each stripe; 0 and 1 both mean one
}

// ReplicaCount normalises Replicas (0 means 1).
func (l Layout) ReplicaCount() int {
	if l.Replicas < 1 {
		return 1
	}
	return int(l.Replicas)
}

// Fields is the layout's wire form, in messages and in the metadata
// journal alike.
func (l *Layout) Fields(c *Codec) {
	c.U32(&l.StripeSize)
	c.U8(&l.Replicas)
	c.U32s(&l.Servers)
}

// CreateReq asks the metadata server to create a file.
type CreateReq struct {
	Name       string
	StripeSize uint32 // 0 means the server default
	Width      uint32 // number of data servers to stripe over; 0 means all
	// Placement, when non-empty, pins the stripe layout to exactly these
	// data-server indices in order (Width is then ignored). Used to
	// co-locate a transform's output with its input.
	Placement []uint32
	// Replicas asks for this many copies of every stripe (0 and 1 both
	// mean no redundancy). Must not exceed the stripe width.
	Replicas uint8
}

func (*CreateReq) Type() MsgType { return MsgCreateReq }

func (m *CreateReq) Fields(c *Codec) {
	c.String(&m.Name)
	c.U32(&m.StripeSize)
	c.U32(&m.Width)
	c.U32s(&m.Placement)
	c.U8(&m.Replicas)
}

// CreateResp returns the handle and layout of a newly created file.
type CreateResp struct {
	Handle uint64
	Layout Layout
}

func (*CreateResp) Type() MsgType { return MsgCreateResp }

func (m *CreateResp) Fields(c *Codec) {
	c.U64(&m.Handle)
	m.Layout.Fields(c)
}

// OpenReq looks a file up by name.
type OpenReq struct {
	Name string
	// Tenant attributes this lookup for metadata QoS. Optional trailing
	// field, encoded only when non-empty (see ReadReq.Tenant).
	Tenant string
}

func (*OpenReq) Type() MsgType { return MsgOpenReq }

func (m *OpenReq) Fields(c *Codec) {
	c.String(&m.Name)
	if c.More(m.Tenant != "") {
		c.String(&m.Tenant)
	}
}

// OpenResp returns everything a client needs to address a file's stripes.
type OpenResp struct {
	Handle uint64
	Size   uint64
	Layout Layout
}

func (*OpenResp) Type() MsgType { return MsgOpenResp }

func (m *OpenResp) Fields(c *Codec) {
	c.U64(&m.Handle)
	c.U64(&m.Size)
	m.Layout.Fields(c)
}

// StatReq asks for file metadata by name.
type StatReq struct {
	Name string
	// Tenant attributes this stat for metadata QoS. Optional trailing
	// field, encoded only when non-empty (see ReadReq.Tenant).
	Tenant string
}

func (*StatReq) Type() MsgType { return MsgStatReq }

func (m *StatReq) Fields(c *Codec) {
	c.String(&m.Name)
	if c.More(m.Tenant != "") {
		c.String(&m.Tenant)
	}
}

// StatResp carries file metadata.
type StatResp struct {
	Handle   uint64
	Size     uint64
	ModUnixN int64 // modification time, Unix nanoseconds
	Layout   Layout
}

func (*StatResp) Type() MsgType { return MsgStatResp }

func (m *StatResp) Fields(c *Codec) {
	c.U64(&m.Handle)
	c.U64(&m.Size)
	c.I64(&m.ModUnixN)
	m.Layout.Fields(c)
}

// RemoveReq deletes a file by name.
type RemoveReq struct{ Name string }

func (*RemoveReq) Type() MsgType     { return MsgRemoveReq }
func (m *RemoveReq) Fields(c *Codec) { c.String(&m.Name) }

// RemoveResp acknowledges a Remove, naming the stripes to drop: Layout
// and the file's recorded Size, whose bytes are all the stripes can hold
// that a reader could see. Both are trailing optional fields: a layout
// without servers omits both, and a size of 0 omits Size.
type RemoveResp struct {
	Handle uint64
	Layout Layout
	Size   uint64
}

func (*RemoveResp) Type() MsgType { return MsgRemoveResp }

func (m *RemoveResp) Fields(c *Codec) {
	c.U64(&m.Handle)
	if c.More(len(m.Layout.Servers) > 0) {
		m.Layout.Fields(c)
		if c.More(m.Size > 0) {
			c.U64(&m.Size)
		}
	}
}

// ListReq enumerates files whose names start with Prefix.
type ListReq struct {
	Prefix string
	// Tenant attributes this listing for metadata QoS. Optional trailing
	// field, encoded only when non-empty (see ReadReq.Tenant).
	Tenant string
}

func (*ListReq) Type() MsgType { return MsgListReq }

func (m *ListReq) Fields(c *Codec) {
	c.String(&m.Prefix)
	if c.More(m.Tenant != "") {
		c.String(&m.Tenant)
	}
}

// ListResp carries matching names in lexical order.
type ListResp struct{ Names []string }

func (*ListResp) Type() MsgType     { return MsgListResp }
func (m *ListResp) Fields(c *Codec) { c.Strings(&m.Names) }

// SetSizeReq extends a file's recorded size after a write. The metadata
// server keeps the maximum of the current and requested sizes, so
// concurrent writers converge without coordination.
type SetSizeReq struct {
	Handle uint64
	Size   uint64
}

func (*SetSizeReq) Type() MsgType { return MsgSetSizeReq }

func (m *SetSizeReq) Fields(c *Codec) {
	c.U64(&m.Handle)
	c.U64(&m.Size)
}

// SetSizeResp returns the size now on record.
type SetSizeResp struct{ Size uint64 }

func (*SetSizeResp) Type() MsgType     { return MsgSetSizeResp }
func (m *SetSizeResp) Fields(c *Codec) { c.U64(&m.Size) }

// ReadReq reads Length bytes at Offset from a data server's local byte
// stream for Handle. Offsets are server-local: the striping client maps
// file offsets to (server, local offset) pairs.
type ReadReq struct {
	Handle uint64
	Offset uint64
	Length uint32
	// Tenant attributes this request's resource usage. Optional trailing
	// field, encoded only when non-empty: an empty tenant IS the default
	// tenant, so default-tenant clients emit frames byte-identical to
	// pre-tenant peers and either side of an old/new pairing interops.
	Tenant string
	// ReqID, when non-zero, registers this read for cancellation: a
	// CancelReq carrying the same id makes the server stop serving it
	// (queued reads are dropped, in-flight responses zero-fill their
	// remaining segments). Hedged reads mint these so the losing replica
	// can be withdrawn. Third-generation optional trailing field, after
	// Tenant; when ReqID is set an empty tenant is encoded explicitly so
	// the fields stay positional.
	ReqID uint64
}

func (*ReadReq) Type() MsgType { return MsgReadReq }

func (m *ReadReq) Fields(c *Codec) {
	c.U64(&m.Handle)
	c.U64(&m.Offset)
	c.U32(&m.Length)
	if c.More(m.Tenant != "" || m.ReqID != 0) {
		c.String(&m.Tenant)
		if c.More(m.ReqID != 0) {
			c.U64(&m.ReqID)
		}
	}
}

// ReadResp returns the requested bytes. A short Data with EOF set means the
// local stream ended.
type ReadResp struct {
	Data []byte
	EOF  bool

	// Payload is not part of the wire format: when non-nil the response
	// body is served by reference from it (disk-backed zero-copy read
	// path) and Data is nil. The wire bytes are identical either way —
	// receivers always decode into Data. The sending data server closes
	// the payload in PostWrite, after the frame has left the connection.
	Payload Payload

	// PoolBuf is not part of the wire format. When non-nil it is the
	// pooled buffer Data aliases; the sending data server sets it so the
	// buffer can be recycled (PutBuf) once the response frame — which is
	// a copy — has been written. Decoded responses leave it nil.
	PoolBuf []byte

	// Cancelled is not part of the wire format. When non-nil the frame
	// writers check it between bulk segments: once it reads true the
	// remaining body bytes are zero-filled instead of served, so a
	// cancelled read stops consuming disk and memory bandwidth promptly
	// while the frame stays protocol-complete (its length was already
	// committed). Receivers never see it.
	Cancelled *atomic.Bool

	// Landed is not part of the wire format. A MuxReader that delivered the
	// body to a Landing (MuxReader.Dest) sets it to the body's length and
	// leaves Data nil.
	Landed int
}

func (*ReadResp) Type() MsgType { return MsgReadResp }

func (m *ReadResp) Fields(c *Codec) {
	c.Body(&m.Data, m.Payload)
	c.Bool(&m.EOF)
}

// encodedSizeHint sizes the frame buffer for the bulk payload.
func (m *ReadResp) encodedSizeHint() int {
	if m.Payload != nil {
		return int(m.Payload.Len()) + 8
	}
	return len(m.Data) + 8
}

// bulkRef implements payloadCarrier: the body is Data or Payload.
func (m *ReadResp) bulkRef() ([]byte, Payload) { return m.Data, m.Payload }

// cancelFlag implements cancelCarrier: the frame writers poll this
// between segments.
func (m *ReadResp) cancelFlag() *atomic.Bool { return m.Cancelled }

// WriteReq writes Data at the server-local Offset for Handle.
type WriteReq struct {
	Handle uint64
	Offset uint64
	Data   []byte
	// Tenant attributes this request. Optional trailing field, encoded
	// only when non-empty (see ReadReq.Tenant).
	Tenant string

	// Payload is not part of the wire format: when non-nil the body is
	// sent from it by reference and Data is nil — the striping client's
	// view of its caller's buffer, which the frame aliases until it has
	// left the writer. The wire bytes are identical either way.
	Payload Payload

	// Landed and Lander are not part of the wire format. A MuxReader that
	// delivered the body to a WriteLanding (MuxReader.WriteDest) sets
	// Landed to the body's length and Lander to the landing, and leaves
	// Data nil; the receiver owns the landing from then on.
	Landed int
	Lander WriteLanding
}

func (*WriteReq) Type() MsgType { return MsgWriteReq }

func (m *WriteReq) Fields(c *Codec) {
	c.U64(&m.Handle)
	c.U64(&m.Offset)
	c.Body(&m.Data, m.Payload)
	if c.More(m.Tenant != "") {
		c.String(&m.Tenant)
	}
}

// encodedSizeHint sizes the frame buffer for the bulk payload.
func (m *WriteReq) encodedSizeHint() int {
	n := len(m.Data) + len(m.Tenant) + 28
	if m.Payload != nil {
		n += int(m.Payload.Len())
	}
	return n
}

// bulkRef implements payloadCarrier: the body is Data or Payload.
func (m *WriteReq) bulkRef() ([]byte, Payload) { return m.Data, m.Payload }

// WriteResp acknowledges the number of bytes durably applied.
type WriteResp struct{ N uint32 }

func (*WriteResp) Type() MsgType     { return MsgWriteResp }
func (m *WriteResp) Fields(c *Codec) { c.U32(&m.N) }

// TruncReq truncates (or removes, when Size is 0 and Remove is set) the
// server-local stream for Handle.
type TruncReq struct {
	Handle uint64
	Size   uint64
	Remove bool
	// Tenant attributes this request. Optional trailing field, encoded
	// only when non-empty (see ReadReq.Tenant).
	Tenant string
}

func (*TruncReq) Type() MsgType { return MsgTruncReq }

func (m *TruncReq) Fields(c *Codec) {
	c.U64(&m.Handle)
	c.U64(&m.Size)
	c.Bool(&m.Remove)
	if c.More(m.Tenant != "") {
		c.String(&m.Tenant)
	}
}

// TruncResp acknowledges a TruncReq.
type TruncResp struct{}

func (*TruncResp) Type() MsgType { return MsgTruncResp }
func (*TruncResp) Fields(*Codec) {}

// ActiveReadReq asks a storage server to run kernel Op over the
// server-local byte range [Offset, Offset+Length) of Handle and return the
// (small) result instead of the raw bytes. This is the wire form of the
// paper's MPI_File_read_ex.
type ActiveReadReq struct {
	RequestID uint64 // client-chosen id, used by CancelReq
	Handle    uint64
	Offset    uint64
	Length    uint64
	Op        string // kernel name in the registry, e.g. "sum64"
	Params    []byte // kernel-specific parameters (encoded by the kernel)
	// ResumeState carries a kernel checkpoint when the client re-issues a
	// previously interrupted request; empty for fresh requests.
	ResumeState []byte
	// TraceID is the distributed trace context minted by the client for
	// this active read; 0 when the peer predates tracing. Optional
	// trailing field: old-format frames omit it and still decode.
	TraceID uint64
	// Tenant attributes this request. Second-generation optional
	// trailing field, after TraceID, encoded only when non-empty (see
	// ReadReq.Tenant).
	Tenant string
}

func (*ActiveReadReq) Type() MsgType { return MsgActiveReadReq }

func (m *ActiveReadReq) Fields(c *Codec) {
	c.U64(&m.RequestID)
	c.U64(&m.Handle)
	c.U64(&m.Offset)
	c.U64(&m.Length)
	c.String(&m.Op)
	c.Bytes(&m.Params)
	c.Bytes(&m.ResumeState)
	if c.More(true) {
		c.U64(&m.TraceID)
		if c.More(m.Tenant != "") {
			c.String(&m.Tenant)
		}
	}
}

// Dispositions of an active read, carried in ActiveReadResp.Disposition.
const (
	// ActiveDone: the kernel ran to completion on the storage node;
	// Result holds the final output (paper: completed = 1).
	ActiveDone uint8 = iota
	// ActiveRejected: the scheduling policy bounced the request before it
	// started; the client must do a normal read and run the kernel
	// locally (paper: completed = 0, buf = null).
	ActiveRejected
	// ActiveInterrupted: the kernel started but was preempted; State
	// holds its checkpoint and Processed the bytes already consumed
	// (paper: completed = 0, buf = saved status).
	ActiveInterrupted
)

// ActiveReadResp answers an ActiveReadReq. It is the wire form of the
// paper's struct result (Table I).
type ActiveReadResp struct {
	RequestID   uint64
	Disposition uint8  // ActiveDone, ActiveRejected, or ActiveInterrupted
	Result      []byte // kernel output when Disposition == ActiveDone
	State       []byte // kernel checkpoint when ActiveInterrupted
	Processed   uint64 // bytes already consumed by the kernel
	// TraceID echoes the request's trace context so responses can be
	// correlated without a lookup table. Optional trailing field.
	TraceID uint64
}

func (*ActiveReadResp) Type() MsgType { return MsgActiveReadResp }

func (m *ActiveReadResp) Fields(c *Codec) {
	c.U64(&m.RequestID)
	c.U8(&m.Disposition)
	c.Bytes(&m.Result)
	c.Bytes(&m.State)
	c.U64(&m.Processed)
	if c.More(true) {
		c.U64(&m.TraceID)
	}
}

// encodedSizeHint sizes the frame buffer for the kernel output.
func (m *ActiveReadResp) encodedSizeHint() int { return len(m.Result) + len(m.State) + 48 }

// ProbeReq asks a storage server for its load status (the Contention
// Estimator's periodic probe).
type ProbeReq struct{}

func (*ProbeReq) Type() MsgType { return MsgProbeReq }
func (*ProbeReq) Fields(*Codec) {}

// ProbeResp is a snapshot of a storage server's load: the inputs the paper
// lists for the CE — I/O queue, CPU utilisation, memory utilisation.
type ProbeResp struct {
	QueueLen       uint32  // normal I/O requests queued or in flight
	ActiveQueueLen uint32  // active I/O requests queued or in flight
	BusyCores      float64 // cores currently executing kernels
	TotalCores     uint32  // cores available to the active runtime
	MemUsed        uint64  // bytes of kernel working memory in use
	MemTotal       uint64  // configured memory budget
	BytesQueued    uint64  // total request bytes awaiting service
}

func (*ProbeResp) Type() MsgType { return MsgProbeResp }

func (m *ProbeResp) Fields(c *Codec) {
	c.U32(&m.QueueLen)
	c.U32(&m.ActiveQueueLen)
	c.F64(&m.BusyCores)
	c.U32(&m.TotalCores)
	c.U64(&m.MemUsed)
	c.U64(&m.MemTotal)
	c.U64(&m.BytesQueued)
}

// CancelReq withdraws a pending or running active read.
type CancelReq struct {
	RequestID uint64
	// TraceID is the request's trace context. Optional trailing field.
	TraceID uint64
}

func (*CancelReq) Type() MsgType { return MsgCancelReq }

func (m *CancelReq) Fields(c *Codec) {
	c.U64(&m.RequestID)
	if c.More(true) {
		c.U64(&m.TraceID)
	}
}

// CancelResp reports whether the request was found (still pending or
// running) when the cancel arrived.
type CancelResp struct{ Found bool }

func (*CancelResp) Type() MsgType     { return MsgCancelResp }
func (m *CancelResp) Fields(c *Codec) { c.Bool(&m.Found) }

// TransformReq asks a storage server to run kernel Op over the
// server-local range [Offset, Offset+Length) of SrcHandle and write the
// output to the server-local stream of DstHandle at DstOffset — active
// write-back: neither input nor output crosses the network. The source
// and destination files must share a stripe layout and the operation must
// be size-preserving, which the client validates before issuing.
type TransformReq struct {
	RequestID uint64
	SrcHandle uint64
	Offset    uint64
	Length    uint64
	Op        string
	Params    []byte
	DstHandle uint64
	DstOffset uint64
	// TraceID is the client-minted trace context. Optional trailing field.
	TraceID uint64
	// Tenant attributes this request. Second-generation optional
	// trailing field, after TraceID, encoded only when non-empty (see
	// ReadReq.Tenant).
	Tenant string
}

func (*TransformReq) Type() MsgType { return MsgTransformReq }

func (m *TransformReq) Fields(c *Codec) {
	c.U64(&m.RequestID)
	c.U64(&m.SrcHandle)
	c.U64(&m.Offset)
	c.U64(&m.Length)
	c.String(&m.Op)
	c.Bytes(&m.Params)
	c.U64(&m.DstHandle)
	c.U64(&m.DstOffset)
	if c.More(true) {
		c.U64(&m.TraceID)
		if c.More(m.Tenant != "") {
			c.String(&m.Tenant)
		}
	}
}

// LocalSizeReq asks a data server for the length of its local stream for
// Handle — the inspection primitive behind fsck and replica repair.
type LocalSizeReq struct{ Handle uint64 }

func (*LocalSizeReq) Type() MsgType     { return MsgLocalSizeReq }
func (m *LocalSizeReq) Fields(c *Codec) { c.U64(&m.Handle) }

// LocalSizeResp returns the local stream length (0 when absent).
type LocalSizeResp struct{ Size uint64 }

func (*LocalSizeResp) Type() MsgType     { return MsgLocalSizeResp }
func (m *LocalSizeResp) Fields(c *Codec) { c.U64(&m.Size) }

// TransformResp acknowledges a TransformReq with the number of output
// bytes written locally.
type TransformResp struct {
	RequestID uint64
	Written   uint64
}

func (*TransformResp) Type() MsgType { return MsgTransformResp }

func (m *TransformResp) Fields(c *Codec) {
	c.U64(&m.RequestID)
	c.U64(&m.Written)
}

// HelloReq is the first message a client sends on a fresh connection, as
// a single frame: it opens the multiplexed framing in mux.go. MaxVersion is
// the highest mux protocol version the client speaks; MaxSegment is the
// largest sub-frame payload, in bytes, it wants the server to emit. A server
// answers any other first frame with StatusUnsupported and hangs up.
type HelloReq struct {
	MaxVersion uint32
	MaxSegment uint32
}

func (*HelloReq) Type() MsgType { return MsgHelloReq }

func (m *HelloReq) Fields(c *Codec) {
	c.U32(&m.MaxVersion)
	c.U32(&m.MaxSegment)
}

// HelloResp answers a HelloReq. Version MuxVersion commits both sides to
// mux framing for every subsequent byte on this connection, with bulk
// frames segmented at MaxSegment. Version 0 refuses a client that speaks
// nothing as new, and the connection closes.
type HelloResp struct {
	Version    uint32
	MaxSegment uint32
}

func (*HelloResp) Type() MsgType { return MsgHelloResp }

func (m *HelloResp) Fields(c *Codec) {
	c.U32(&m.Version)
	c.U32(&m.MaxSegment)
}

// IntrospectReq asks a server for one kind of introspection: its metrics,
// trace ring, health, telemetry history, decision log, events, alerts,
// tenant table or telemetry archive. Kind names it; Params is the JSON of
// the kind's parameters, empty for none. Both are opaque here, so the kinds
// and their schemas (pfs/introspect.go) grow without touching the wire
// format.
type IntrospectReq struct {
	Kind   string
	Params []byte
}

func (*IntrospectReq) Type() MsgType { return MsgIntrospectReq }

func (m *IntrospectReq) Fields(c *Codec) {
	c.String(&m.Kind)
	c.Bytes(&m.Params)
}

// IntrospectResp answers an IntrospectReq with the serving node's identity
// and Body, the JSON of the kind's reply.
type IntrospectResp struct {
	Node string
	Body []byte
}

func (*IntrospectResp) Type() MsgType { return MsgIntrospectResp }

func (m *IntrospectResp) Fields(c *Codec) {
	c.String(&m.Node)
	c.Bytes(&m.Body)
}

// encodedSizeHint sizes the frame buffer for the reply body.
func (m *IntrospectResp) encodedSizeHint() int { return len(m.Body) + len(m.Node) + 16 }
