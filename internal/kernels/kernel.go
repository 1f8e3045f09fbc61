// Package kernels implements the Processing Kernels (PKs) component of the
// DOSAS architecture: a registry of predefined analysis kernels deployed on
// both storage nodes and compute nodes. Each kernel consumes a byte stream
// incrementally and can checkpoint its internal state at any chunk
// boundary, so the Active I/O Runtime can interrupt a kernel running on an
// overloaded storage node and the Active Storage Client can resume it on
// the compute node — the migration mechanism of paper Section III-E.
package kernels

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Kernel is one analysis operation. Usage protocol:
//
//	k := kernels.New(op)
//	k.Configure(params)        // once, before any data
//	k.Process(chunk) ...       // zero or more times, in stream order
//	state := k.Checkpoint()    // optionally, between Process calls
//	k2 := kernels.New(op); k2.Configure(params); k2.Restore(state)
//	out := k.Result()          // finalize
//
// Implementations are not safe for concurrent use; the runtime gives each
// request its own instance.
type Kernel interface {
	// Name returns the registry name of the operation.
	Name() string
	// Configure applies the request's kernel parameters. A nil or empty
	// params selects defaults.
	Configure(params []byte) error
	// Process consumes the next chunk of the input stream. Chunks may be
	// any size, including sizes that split logical elements; kernels
	// carry partial elements across calls. A chunk is read-only and valid
	// only during the call: on a storage node it is the page cache itself,
	// mapped read-only, so a kernel copies what it carries over.
	Process(chunk []byte) error
	// Checkpoint serialises the kernel's full internal state.
	Checkpoint() ([]byte, error)
	// Restore replaces the kernel's state with a prior checkpoint taken
	// from a kernel of the same name and configuration.
	Restore(state []byte) error
	// Result finalises processing and returns the output bytes.
	Result() ([]byte, error)
	// ResultSize estimates h(x): the output size for an x-byte input,
	// used by the scheduler to cost result transfers.
	ResultSize(inputBytes uint64) uint64
}

// Factory creates a fresh, unconfigured kernel instance.
type Factory func() Kernel

var (
	regMu    sync.RWMutex
	registry = make(map[string]Factory)
)

// ErrUnknown reports an operation name with no registered kernel.
var ErrUnknown = errors.New("kernels: unknown operation")

// Register adds a kernel factory under name. It panics on duplicates, as
// registration happens from init functions.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := registry[name]; ok {
		panic(fmt.Sprintf("kernels: duplicate registration of %q", name))
	}
	registry[name] = f
}

// New returns a fresh kernel for the named operation.
func New(name string) (Kernel, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	return f(), nil
}

// Registered reports whether name has a kernel, without building one.
func Registered(name string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := registry[name]
	return ok
}

// Start runs the opening steps of the usage protocol in one call: a fresh
// kernel for op, configured with params and, when resumeState is not empty,
// restored from that checkpoint.
func Start(op string, params, resumeState []byte) (Kernel, error) {
	k, err := New(op)
	if err != nil {
		return nil, err
	}
	if err := k.Configure(params); err != nil {
		return nil, err
	}
	if len(resumeState) > 0 {
		if err := k.Restore(resumeState); err != nil {
			return nil, err
		}
	}
	return k, nil
}

// Names returns all registered operation names in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// carry buffers the tail of a chunk that splits a fixed-size element, so
// element-oriented kernels see whole elements regardless of chunking.
type carry struct {
	elem int // element size in bytes
	buf  []byte
}

// feed appends chunk to any carried bytes and calls fn with the longest
// whole-element prefix; the remainder is carried to the next call.
func (c *carry) feed(chunk []byte, fn func(whole []byte)) {
	if len(c.buf) > 0 {
		need := c.elem - len(c.buf)
		if need > len(chunk) {
			c.buf = append(c.buf, chunk...)
			return
		}
		c.buf = append(c.buf, chunk[:need]...)
		fn(c.buf)
		c.buf = c.buf[:0]
		chunk = chunk[need:]
	}
	n := len(chunk) / c.elem * c.elem
	if n > 0 {
		fn(chunk[:n])
	}
	if n < len(chunk) {
		c.buf = append(c.buf, chunk[n:]...)
	}
}
