// Package evloop is the deterministic discrete-event substrate of the
// execution engine (internal/sim, which runs every online execution
// too) and of the multi-tenant shared pool (internal/pool).
//
// It holds one type, Queue: a heap of small event values dispatched in
// strict (time, insertion-sequence) order, where Push assigns the
// sequence, so the tie-break is a pure function of program order. Each
// host owns its virtual clock and checks it against the instant Pop
// returns. A host loop (the pool) can therefore interleave events from
// many producers — one hosted execution per in-flight workflow, plus
// its own timers — while keeping every producer's internal order
// intact, which is what makes a single-tenant pool run bit-identical to
// a standalone internal/online execution.
package evloop

// Queue is a binary min-heap of values ordered by (time, insertion
// sequence): the only event heap in the repository. Once its backing
// array has grown a push allocates nothing. The zero value is ready to
// use; it is not safe for concurrent use.
type Queue[V any] struct {
	seq int
	h   []slot[V]
}

type slot[V any] struct {
	at  float64
	seq int
	v   V
}

// Len returns the number of pending events.
func (q *Queue[V]) Len() int { return len(q.h) }

// Reset empties the queue and restarts the sequence, keeping the
// backing array.
func (q *Queue[V]) Reset() {
	clear(q.h)
	q.h = q.h[:0]
	q.seq = 0
}

// Push schedules v at instant at and returns the insertion sequence it
// was assigned.
func (q *Queue[V]) Push(at float64, v V) int {
	in := slot[V]{at: at, seq: q.seq, v: v}
	q.seq++
	q.h = append(q.h, in)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !in.before(&q.h[parent]) {
			break
		}
		q.h[i] = q.h[parent]
		i = parent
	}
	q.h[i] = in
	return in.seq
}

// Peek returns the earliest pending event and its instant without
// removing it; ok is false when the queue is empty.
func (q *Queue[V]) Peek() (at float64, v V, ok bool) {
	if len(q.h) == 0 {
		return 0, v, false
	}
	return q.h[0].at, q.h[0].v, true
}

// Pop removes and returns the earliest pending event and its instant;
// ok is false when the queue is empty.
func (q *Queue[V]) Pop() (at float64, v V, ok bool) {
	if len(q.h) == 0 {
		return 0, v, false
	}
	top := q.h[0]
	n := len(q.h) - 1
	last := q.h[n]
	q.h[n] = slot[V]{} // release any reference the value holds
	q.h = q.h[:n]
	if n > 0 {
		// Sift the hole left at the root down, then drop last into it.
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && q.h[c+1].before(&q.h[c]) {
				c++
			}
			if !q.h[c].before(&last) {
				break
			}
			q.h[i] = q.h[c]
			i = c
		}
		q.h[i] = last
	}
	return top.at, top.v, true
}

func (s *slot[V]) before(o *slot[V]) bool {
	if s.at != o.at {
		return s.at < o.at
	}
	return s.seq < o.seq
}
