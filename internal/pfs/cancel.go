package pfs

// Cancellation of normal (non-active) reads. The active runtime has
// always honored CancelReq via its own queue; plain chunk reads had no
// identity on the wire, so a hedged read's losing replica kept serving
// to the last byte. ReadReq.ReqID gives them one, and this registry is
// the server-side rendezvous: the read handler registers its id before
// gating, a CancelReq flips the registered flag (and withdraws the QoS
// ticket while still queued), and the framing writers poll the flag
// between segments of an already-started response.

import (
	"sync"
	"sync/atomic"
	"time"
)

// HedgeIDBit tags client-minted normal-read request ids, keeping them
// disjoint from the small sequential ids active reads use — a stray
// active cancel can never hit the normal-read registry, and vice versa.
const HedgeIDBit uint64 = 1 << 63

// tombstoneTTL bounds how long a cancel-before-register tombstone is
// kept waiting for its ReadReq to arrive.
const tombstoneTTL = 5 * time.Second

// cancelState is one registered read's cancellation rendezvous. flag is
// polled lock-free by the framing writers; everything else is guarded
// by the registry mutex.
type cancelState struct {
	flag   atomic.Bool
	ticket *Ticket
	tomb   bool // cancel arrived before the ReadReq registered
	at     time.Time
}

// cancelRegistry indexes in-flight normal reads by ReqID.
type cancelRegistry struct {
	mu  sync.Mutex
	m   map[uint64]*cancelState
	now func() time.Time
}

// register files id and returns its state. If a CancelReq beat the
// ReadReq here (mux handlers dispatch concurrently), the returned
// state's flag is already true and the caller must not serve.
func (r *cancelRegistry) register(id uint64) *cancelState {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = make(map[uint64]*cancelState)
	}
	if cs := r.m[id]; cs != nil && cs.tomb {
		cs.tomb = false
		return cs
	}
	cs := &cancelState{}
	r.m[id] = cs
	return cs
}

// attach binds the read's QoS ticket to its state. If the read was
// cancelled in the register→attach window, the ticket is withdrawn
// immediately so Wait returns false instead of ever holding a slot.
func (r *cancelRegistry) attach(cs *cancelState, tk *Ticket) {
	r.mu.Lock()
	cs.ticket = tk
	cancelled := cs.flag.Load()
	r.mu.Unlock()
	if cancelled {
		tk.g.Cancel(tk)
	}
}

// cancel marks id cancelled, withdrawing its QoS ticket if still
// queued. Reports whether the id was registered. Unknown hedge-tagged
// ids leave a tombstone so a racing ReadReq arriving just behind the
// cancel is refused service.
func (r *cancelRegistry) cancel(id uint64) bool {
	r.mu.Lock()
	cs := r.m[id]
	if cs == nil {
		if id&HedgeIDBit == 0 {
			r.mu.Unlock()
			return false
		}
		if r.m == nil {
			r.m = make(map[uint64]*cancelState)
		}
		now := time.Now
		if r.now != nil {
			now = r.now
		}
		// Sweep expired tombstones while we are here: a lost ReadReq must
		// not pin its tombstone forever.
		cutoff := now().Add(-tombstoneTTL)
		for tid, ts := range r.m {
			if ts.tomb && ts.at.Before(cutoff) {
				delete(r.m, tid)
			}
		}
		cs = &cancelState{tomb: true, at: now()}
		cs.flag.Store(true)
		r.m[id] = cs
		r.mu.Unlock()
		return false
	}
	cs.flag.Store(true)
	tk := cs.ticket
	r.mu.Unlock()
	if tk != nil {
		tk.g.Cancel(tk)
	}
	return true
}

// unregister drops id after its response has left the server.
func (r *cancelRegistry) unregister(id uint64) {
	r.mu.Lock()
	delete(r.m, id)
	r.mu.Unlock()
}
