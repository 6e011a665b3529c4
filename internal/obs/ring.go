package obs

import "sync"

// Ring keeps the most recent traces in bounded memory, indexed by the
// ID set with Trace.SetID. The daemon stores every request's trace
// here so GET /v1/traces/{requestId} can retrieve it after the
// response went out; when the ring wraps, the oldest trace (and its
// index entry) is evicted.
type Ring struct {
	mu   sync.Mutex
	slot []*Trace
	byID map[string]*Trace
	next int
	n    int
}

// NewRing returns a ring holding up to capacity traces; capacity < 1
// yields a nil ring, whose methods are no-ops (tracing storage
// disabled).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		return nil
	}
	return &Ring{slot: make([]*Trace, capacity), byID: make(map[string]*Trace, capacity)}
}

// Add stores a trace, evicting the oldest when full. Traces without
// an ID are stored but not retrievable by Get.
func (r *Ring) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old := r.slot[r.next]; old != nil {
		if id := old.ID(); id != "" && r.byID[id] == old {
			delete(r.byID, id)
		}
	} else {
		r.n++
	}
	r.slot[r.next] = t
	if id := t.ID(); id != "" {
		r.byID[id] = t
	}
	r.next = (r.next + 1) % len(r.slot)
}

// Get retrieves a stored trace by ID.
func (r *Ring) Get(id string) (*Trace, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.byID[id]
	return t, ok
}

// IDs lists the stored trace IDs, most recent first.
func (r *Ring) IDs() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, r.n)
	for i := 0; i < len(r.slot); i++ {
		// Walk backwards from the most recently written slot.
		idx := (r.next - 1 - i + 2*len(r.slot)) % len(r.slot)
		t := r.slot[idx]
		if t == nil {
			continue
		}
		if id := t.ID(); id != "" {
			out = append(out, id)
		}
	}
	return out
}
