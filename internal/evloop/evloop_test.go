package evloop

import (
	"testing"

	"budgetwf/internal/rng"
)

func TestOrdersByTimeThenInsertion(t *testing.T) {
	var q Queue[int]
	// Three tied instants interleaved with distinct ones; ties must
	// come out in push order.
	q.Push(5, 0)
	q.Push(1, 1)
	q.Push(5, 2)
	q.Push(3, 3)
	q.Push(5, 4)
	want := []int{1, 3, 0, 2, 4}
	for i, w := range want {
		_, id, ok := q.Pop()
		if !ok {
			t.Fatalf("pop %d: empty", i)
		}
		if id != w {
			t.Fatalf("pop %d: got id %d, want %d", i, id, w)
		}
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("pop on empty queue succeeded")
	}
}

func TestHeapPropertyRandomized(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 50; trial++ {
		var q Queue[int]
		n := 1 + r.Intn(200)
		for i := 0; i < n; i++ {
			// Coarse times force plenty of ties; the value is the
			// sequence Push assigned, so ties must pop in value order.
			if seq := q.Push(float64(r.Intn(20)), i); seq != i {
				t.Fatalf("trial %d: push %d assigned sequence %d", trial, i, seq)
			}
		}
		lastT, lastSeq := -1.0, -1
		for q.Len() > 0 {
			at, seq, _ := q.Pop()
			if at < lastT || (at == lastT && seq < lastSeq) {
				t.Fatalf("trial %d: out of order: (%v,%d) after (%v,%d)",
					trial, at, seq, lastT, lastSeq)
			}
			lastT, lastSeq = at, seq
		}
	}
}

func TestPeek(t *testing.T) {
	var q Queue[int]
	if _, _, ok := q.Peek(); ok {
		t.Fatal("peek on empty queue succeeded")
	}
	q.Push(2, 0)
	q.Push(1, 1)
	at, id, ok := q.Peek()
	if !ok || id != 1 || at != 1 {
		t.Fatalf("peek = (%v, %v, %v), want id 1 at 1", at, id, ok)
	}
	if q.Len() != 2 {
		t.Fatalf("peek consumed an event: len %d", q.Len())
	}
}
