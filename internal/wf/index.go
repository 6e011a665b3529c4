package wf

// Adjacency lists, per task, the indices into EdgesView of its edges
// at one endpoint, in edge order, in one array. It is read-only.
type Adjacency struct{ off, idx []int }

// Of returns task t's edge indices.
func (a Adjacency) Of(t TaskID) []int { return a.idx[a.off[t]:a.off[t+1]] }

// In returns the workflow's incoming-edge adjacency and Out its
// outgoing one. A later AddTask or AddEdge does not change them; read
// them again after one.
func (w *Workflow) In() Adjacency  { return w.index().in }
func (w *Workflow) Out() Adjacency { return w.index().out }

// index is what a workflow derives from its edge list: the adjacency
// at both endpoints, and topo, Kahn's order taking the smallest ready
// ID first, which holds fewer than n tasks when the graph has a cycle.
// An index is never modified once built, so clones may share it.
type index struct {
	in, out Adjacency
	topo    []int
}

// index returns w's index, deriving it on first use. Two first readers
// may both derive it; they publish equal indexes, and either will do.
func (w *Workflow) index() *index {
	if x := w.idx.Load(); x != nil {
		return x
	}
	x := newIndex(len(w.tasks), w.edges)
	w.idx.Store(x)
	return x
}

// newIndex builds the index of n tasks joined by edges, whose endpoints
// are in [0, n), in one counting pass and one allocation besides the
// header. The block ends with Kahn's 2n ints of scratch.
func newIndex(n int, edges []Edge) *index {
	m := len(edges)
	block := make([]int, 2*(n+2)+2*m+3*n)
	inOff, outOff := block[:n+2], block[n+2:2*n+4]
	rest := block[2*n+4:]
	in, out := rest[:m:m], rest[m:2*m:2*m]
	// Count each task's edges two slots up, so that after the prefix sum
	// off[t+1] is where t's edges start; filling advances it to where
	// they end, which is where t+1's start.
	for _, e := range edges {
		inOff[e.To+2]++
		outOff[e.From+2]++
	}
	for t := 2; t < n+2; t++ {
		inOff[t] += inOff[t-1]
		outOff[t] += outOff[t-1]
	}
	for i, e := range edges {
		in[inOff[e.To+1]] = i
		inOff[e.To+1]++
		out[outOff[e.From+1]] = i
		outOff[e.From+1]++
	}
	x := &index{in: Adjacency{inOff[: n+1 : n+1], in}, out: Adjacency{outOff[: n+1 : n+1], out}}
	x.topo = x.kahn(edges, rest[2*m:2*m+n:2*m+n], rest[2*m+n:2*m+2*n], rest[2*m+2*n:])
	return x
}

// kahn fills topo with Kahn's order, popping the smallest ready ID
// from a binary min-heap, and returns the prefix it ordered. topo,
// indeg and heap hold n ints each.
func (x *index) kahn(edges []Edge, topo, indeg, heap []int) []int {
	h := heap[:0]
	for t := range indeg {
		if indeg[t] = len(x.in.Of(TaskID(t))); indeg[t] == 0 {
			h = append(h, t) // ascending, so already a heap
		}
	}
	order := topo[:0]
	for len(h) > 0 {
		t := h[0]
		h[0], h = h[len(h)-1], h[:len(h)-1]
		siftDown(h, 0)
		order = append(order, t)
		for _, e := range x.out.Of(TaskID(t)) {
			to := int(edges[e].To)
			if indeg[to]--; indeg[to] == 0 {
				h = append(h, to)
				siftUp(h, len(h)-1)
			}
		}
	}
	return order
}

func siftUp(h []int, i int) {
	for p := (i - 1) / 2; i > 0 && h[p] > h[i]; i, p = p, (p-1)/2 {
		h[p], h[i] = h[i], h[p]
	}
}

func siftDown(h []int, i int) {
	for {
		least, l := i, 2*i+1
		if l < len(h) && h[l] < h[least] {
			least = l
		}
		if r := l + 1; r < len(h) && h[r] < h[least] {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// none returns the tasks a has no edge for.
func (a Adjacency) none() []TaskID {
	var out []TaskID
	for t := 1; t < len(a.off); t++ {
		if a.off[t] == a.off[t-1] {
			out = append(out, TaskID(t-1))
		}
	}
	return out
}
