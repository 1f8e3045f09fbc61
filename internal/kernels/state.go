package kernels

import (
	"errors"
	"fmt"

	"dosas/internal/wire"
)

// State is the checkpoint container kernels serialise themselves into. The
// paper specifies that an interrupted kernel writes its status as a list of
// ⟨variable name, variable type, value⟩ records into shared memory; State
// is exactly that, encoded with the wire codec so checkpoints can travel in
// ActiveReadResp messages unchanged.
type State struct {
	vars  map[string]stateVar
	order []string // insertion order, for deterministic encoding
}

type stateVar struct {
	typ uint8
	i   int64
	f   float64
	b   []byte
}

// Variable type tags; on-the-wire values.
const (
	stInt64 uint8 = iota + 1
	stFloat64
	stBytes
)

// State errors.
var (
	ErrStateMissing = errors.New("kernels: checkpoint variable missing")
	ErrStateType    = errors.New("kernels: checkpoint variable has wrong type")
	ErrStateCorrupt = errors.New("kernels: corrupt checkpoint")
)

// NewState returns an empty checkpoint container.
func NewState() *State {
	return &State{vars: make(map[string]stateVar)}
}

func (s *State) put(name string, v stateVar) {
	if _, ok := s.vars[name]; !ok {
		s.order = append(s.order, name)
	}
	s.vars[name] = v
}

// PutInt64 records an integer variable.
func (s *State) PutInt64(name string, v int64) { s.put(name, stateVar{typ: stInt64, i: v}) }

// PutFloat64 records a float variable.
func (s *State) PutFloat64(name string, v float64) { s.put(name, stateVar{typ: stFloat64, f: v}) }

// PutBytes records a byte-slice variable (copied).
func (s *State) PutBytes(name string, v []byte) {
	b := make([]byte, len(v))
	copy(b, v)
	s.put(name, stateVar{typ: stBytes, b: b})
}

// Int64 fetches an integer variable.
func (s *State) Int64(name string) (int64, error) {
	v, ok := s.vars[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrStateMissing, name)
	}
	if v.typ != stInt64 {
		return 0, fmt.Errorf("%w: %q", ErrStateType, name)
	}
	return v.i, nil
}

// Float64 fetches a float variable.
func (s *State) Float64(name string) (float64, error) {
	v, ok := s.vars[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrStateMissing, name)
	}
	if v.typ != stFloat64 {
		return 0, fmt.Errorf("%w: %q", ErrStateType, name)
	}
	return v.f, nil
}

// Bytes fetches a byte-slice variable.
func (s *State) Bytes(name string) ([]byte, error) {
	v, ok := s.vars[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrStateMissing, name)
	}
	if v.typ != stBytes {
		return nil, fmt.Errorf("%w: %q", ErrStateType, name)
	}
	return v.b, nil
}

// Encode serialises the state, prefixed with the owning kernel's name so a
// mismatched Restore fails loudly instead of silently corrupting results.
func (s *State) Encode(kernelName string) ([]byte, error) {
	var c wire.Codec
	n := uint32(len(s.order))
	c.String(&kernelName)
	c.U32(&n)
	for _, name := range s.order {
		v := s.vars[name]
		c.String(&name)
		c.U8(&v.typ)
		switch v.typ {
		case stInt64:
			c.I64(&v.i)
		case stFloat64:
			c.F64(&v.f)
		case stBytes:
			c.Bytes(&v.b)
		}
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	return c.Buf(), nil
}

// DecodeState parses a checkpoint, verifying it belongs to kernelName.
func DecodeState(kernelName string, raw []byte) (*State, error) {
	var owner string
	var n uint32
	d := wire.NewDecoder(raw)
	d.String(&owner)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStateCorrupt, err)
	}
	if owner != kernelName {
		return nil, fmt.Errorf("%w: checkpoint belongs to %q, not %q", ErrStateType, owner, kernelName)
	}
	d.U32(&n)
	s := NewState()
	for i := uint32(0); i < n; i++ {
		var name string
		var v stateVar
		d.String(&name)
		d.U8(&v.typ)
		switch v.typ {
		case stInt64:
			d.I64(&v.i)
		case stFloat64:
			d.F64(&v.f)
		case stBytes:
			d.Bytes(&v.b)
			v.b = append(make([]byte, 0, len(v.b)), v.b...)
		default:
			return nil, fmt.Errorf("%w: unknown variable type %d", ErrStateCorrupt, v.typ)
		}
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrStateCorrupt, err)
		}
		s.put(name, v)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStateCorrupt, err)
	}
	return s, nil
}
