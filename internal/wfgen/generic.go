package wfgen

import (
	"fmt"
	"slices"

	"budgetwf/internal/rng"
	"budgetwf/internal/wf"
)

// genRandomLayered builds a random layered DAG: tasks are spread over
// layers and each non-entry task draws 1–3 predecessors from the
// previous layer. Used by property tests and the generic examples; not
// part of the paper's benchmark set.
func genRandomLayered(n int, r *rng.RNG) (*wf.Workflow, error) {
	w := wf.New("random")
	numLayers := 2 + r.Intn(max(2, n/4))
	if numLayers > n {
		numLayers = n
	}
	// Distribute n tasks over numLayers layers, at least one per layer.
	counts := make([]int, numLayers)
	for i := range counts {
		counts[i] = 1
	}
	for extra := n - numLayers; extra > 0; extra-- {
		counts[r.Intn(numLayers)]++
	}
	w.Grow(n, 3*n)
	nm := newNamer(n, "t")
	// IDs are dense in insertion order, so the previous layer is the ID
	// range [prev, prev+numPrev).
	var prev, numPrev wf.TaskID
	for l, c := range counts {
		first := wf.TaskID(w.NumTasks())
		for i := 0; i < c; i++ {
			id := w.AddTask(nm.name("t", l, i), weight(jitter(r, 10+90*r.Float64(), 0.0)))
			if l == 0 {
				w.MustSetExternalIO(id, jitter(r, 50*mb, 0.5), 0)
				continue
			}
			seen := [3]int{-1, -1, -1}
			preds := 1 + r.Intn(min(3, int(numPrev)))
			for k := 0; k < preds; k++ {
				pi := r.Intn(int(numPrev))
				if slices.Contains(seen[:k], pi) {
					continue
				}
				seen[k] = pi
				w.MustAddEdge(prev+wf.TaskID(pi), id, jitter(r, 20*mb, 0.5))
			}
		}
		prev, numPrev = first, wf.TaskID(c)
	}
	for id := range wf.TaskID(n) {
		if w.NumSucc(id) == 0 {
			w.MustSetExternalIO(id, w.Task(id).ExternalIn, jitter(r, 10*mb, 0.5))
		}
	}
	return w, nil
}

// genChain builds a linear pipeline of n tasks, the worst case for
// parallelism and the best case for keeping data in place on one VM.
func genChain(n int, r *rng.RNG) (*wf.Workflow, error) {
	w := wf.New("chain")
	w.Grow(n, n-1)
	nm := newNamer(n, "stage_")
	var prev wf.TaskID
	for i := 0; i < n; i++ {
		id := w.AddTask(nm.name("stage_", i), weight(jitter(r, 60, 0.3)))
		if i == 0 {
			w.MustSetExternalIO(id, jitter(r, 100*mb, 0.2), 0)
		} else {
			w.MustAddEdge(prev, id, jitter(r, 50*mb, 0.3))
		}
		prev = id
	}
	w.MustSetExternalIO(prev, w.Task(prev).ExternalIn, jitter(r, 20*mb, 0.2))
	return w, nil
}

// genForkJoin builds a source → n-2 parallel workers → sink diamond,
// the best case for parallelism.
func genForkJoin(n int, r *rng.RNG) (*wf.Workflow, error) {
	if n < 3 {
		return nil, fmt.Errorf("wfgen: forkjoin needs at least 3 tasks, got %d", n)
	}
	w := wf.New("forkjoin")
	w.Grow(n, 2*(n-2))
	nm := newNamer(n, "worker_")
	src := w.AddTask("fork", weight(jitter(r, 20, 0.2)))
	w.MustSetExternalIO(src, jitter(r, 200*mb, 0.2), 0)
	sink := w.AddTask("join", weight(jitter(r, 20, 0.2)))
	for i := 0; i < n-2; i++ {
		mid := w.AddTask(nm.name("worker_", i), weight(jitter(r, 120, 0.3)))
		w.MustAddEdge(src, mid, jitter(r, 20*mb, 0.3))
		w.MustAddEdge(mid, sink, jitter(r, 10*mb, 0.3))
	}
	w.MustSetExternalIO(sink, 0, jitter(r, 50*mb, 0.2))
	return w, nil
}

// genBagOfTasks builds n fully independent tasks, the limit shape the
// paper says large CYBERSHAKE and LIGO instances approach.
func genBagOfTasks(n int, r *rng.RNG) (*wf.Workflow, error) {
	w := wf.New("bagoftasks")
	w.Grow(n, 0)
	nm := newNamer(n, "task_")
	for i := 0; i < n; i++ {
		id := w.AddTask(nm.name("task_", i), weight(jitter(r, 100, 0.5)))
		w.MustSetExternalIO(id, jitter(r, 50*mb, 0.5), jitter(r, 10*mb, 0.5))
	}
	return w, nil
}
