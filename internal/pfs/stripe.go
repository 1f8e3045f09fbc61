package pfs

import (
	"dosas/internal/wire"
)

// Run is one data server's share of a contiguous file range. Round-robin
// striping sends every width-th stripe to the same server and packs them
// back to back in its local stream, so the share is one contiguous local
// range however many stripes it spans. The striping client issues one
// windowed transfer per run.
type Run struct {
	Slot        int    // index into Layout.Servers
	Server      uint32 // cluster data-server index (Layout.Servers[Slot])
	FileOffset  uint64 // where the run's first byte sits in the file
	LocalOffset uint64 // where it starts in the server's local stream
	Length      uint64 // local bytes
}

// Runs maps the file range [off, off+length) onto at most one run per
// layout slot, in file order of their first bytes.
func Runs(layout wire.Layout, off, length uint64) []Run {
	if length == 0 || len(layout.Servers) == 0 || layout.StripeSize == 0 {
		return nil
	}
	w := len(layout.Servers)
	first := int(off / uint64(layout.StripeSize) % uint64(w))
	runs := make([]Run, 0, w)
	for i := 0; i < w; i++ {
		slot := (first + i) % w
		// A slot's bytes of the file prefix [0, x) are its local prefix
		// [0, LocalSize(x)): the range's share lies between the two.
		lo := LocalSize(layout, off, slot)
		if n := LocalSize(layout, off+length, slot) - lo; n > 0 {
			runs = append(runs, Run{
				Slot: slot, Server: layout.Servers[slot],
				FileOffset: FileOffsetOf(layout, slot, lo), LocalOffset: lo, Length: n,
			})
		}
	}
	return runs
}

// view returns the run's bytes inside p, the caller's buffer for a file
// range starting at off: stripe-sized pieces, one full stripe row apart.
func (r Run) view(layout wire.Layout, p []byte, off uint64) strided {
	ss, w := int(layout.StripeSize), len(layout.Servers)
	v := strided{buf: p[r.FileOffset-off:], n: int(r.Length), piece: ss, skip: (w - 1) * ss}
	v.first = min(v.n, ss-int(r.LocalOffset%uint64(ss)))
	return v
}

// LocalSize returns how many bytes of a file of fileSize bytes live on the
// server occupying the given slot of layout.
func LocalSize(layout wire.Layout, fileSize uint64, slot int) uint64 {
	if len(layout.Servers) == 0 || layout.StripeSize == 0 {
		return 0
	}
	ss := uint64(layout.StripeSize)
	w := uint64(len(layout.Servers))
	full := fileSize / ss // number of complete stripes
	rem := fileSize % ss
	mine := full / w
	if full%w > uint64(slot) {
		mine++
	}
	n := mine * ss
	if full%w == uint64(slot) {
		n += rem
	}
	return n
}

// FileOffsetOf inverts the stripe mapping: given a server slot and a
// server-local offset, it returns the file offset the byte corresponds to.
func FileOffsetOf(layout wire.Layout, slot int, local uint64) uint64 {
	ss := uint64(layout.StripeSize)
	w := uint64(len(layout.Servers))
	localStripe := local / ss
	within := local % ss
	g := localStripe*w + uint64(slot)
	return g*ss + within
}

// replicaTagShift positions the replica index inside a stripe-stream
// handle. File handles stay below 2^56, so the tag never collides.
const replicaTagShift = 56

// ReplicaHandle returns the data-server stream handle for replica r of a
// file. Replica 0 is the file handle itself.
func ReplicaHandle(handle uint64, r int) uint64 {
	return handle | uint64(r)<<replicaTagShift
}

// ReplicaServer returns the cluster server index holding replica r of the
// stripes owned by slot. Chained placement: each successive replica lives
// one slot further around the layout's server ring, so the r-th copy of a
// slot's stripes occupies a contiguous local stream with exactly the same
// local offsets as the primary.
func ReplicaServer(layout wire.Layout, slot, r int) uint32 {
	w := len(layout.Servers)
	return layout.Servers[(slot+r)%w]
}
