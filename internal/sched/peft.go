package sched

import (
	"math"

	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/wf"
)

// peftOpt implements PEFT (Arabnejad & Barbosa, "List Scheduling
// Algorithm for Heterogeneous Systems by an Optimistic Cost Table",
// TPDS 2014) as an extension baseline beyond the paper's algorithm
// set: HEFT's direct successor in the literature, and by the same
// authors as the BDT competitor. PEFT looks one step ahead through the
// Optimistic Cost Table
//
//	OCT(t, k) = max_{s ∈ succ(t)} min_{k'} [ OCT(s, k') + w(s, k')
//	                                         + c̄(t,s)·𝟙[k' ≠ k] ]
//
// where w(s, k') is the conservative execution time of s on category
// k' and c̄(t,s) the datacenter round-trip estimate of the edge. Tasks
// are ranked by the average OCT over categories and placed on the host
// minimizing EFT + OCT(t, cat(host)) — favouring hosts that keep the
// *descendants* fast, which plain HEFT cannot see. Budget-blind, like
// the other baselines.
func peftOpt(w *wf.Workflow, p *platform.Platform, opt Options) (*plan.Schedule, error) {
	ctx, err := newContext(w, p)
	if err != nil {
		return nil, err
	}
	oct, err := octTable(ctx)
	if err != nil {
		return nil, err
	}
	k := p.NumCategories()
	n := w.NumTasks()

	// rank_oct: average OCT across categories; processed in
	// non-increasing rank order restricted to ready tasks (rank_oct is
	// not necessarily monotone along edges, so a plain sort is not
	// topological — PEFT schedules from a ready list).
	rank := make([]float64, n)
	for t := 0; t < n; t++ {
		sum := 0.0
		for cat := 0; cat < k; cat++ {
			sum += oct[t][cat]
		}
		rank[t] = sum / float64(k)
	}

	// The next task is the ready one of highest rank, the lowest ID
	// among equals: the heap's top. Every OCT entry is a maximum from 0
	// of minima that a NaN term never wins, so no rank is NaN.
	st := newState(ctx)
	remaining := make([]int, n)
	heap := readyHeap{rank: rank, tasks: make([]wf.TaskID, 0, n)}
	for t := 0; t < n; t++ {
		if remaining[t] = w.NumPred(wf.TaskID(t)); remaining[t] == 0 {
			heap.push(wf.TaskID(t))
		}
	}
	listT := make([]wf.TaskID, 0, n)
	for len(listT) < n {
		if err := opt.stopErr(); err != nil {
			return nil, err
		}
		if len(heap.tasks) == 0 {
			return nil, errNoReadyTask(w.Name, len(listT), n)
		}
		t := heap.pop()
		st.assign(t, st.peftHost(t, oct[t]))
		listT = append(listT, t)
		for _, e := range ctx.succ[t] {
			if remaining[e.To]--; remaining[e.To] == 0 {
				heap.push(e.To)
			}
		}
	}
	out := st.extract(listT)
	out.EstCost = initSpent(out, p)
	return out, nil
}

// readyHeap is PEFT's ready list, a binary heap whose top is the task
// of highest rank, the lowest ID among equal ranks. The ranks must not
// be NaN.
type readyHeap struct {
	rank  []float64
	tasks []wf.TaskID
}

// above reports whether a goes before b.
func (h *readyHeap) above(a, b wf.TaskID) bool {
	return h.rank[a] > h.rank[b] || h.rank[a] == h.rank[b] && a < b
}

func (h *readyHeap) push(t wf.TaskID) {
	h.tasks = append(h.tasks, t)
	for i := len(h.tasks) - 1; i > 0; {
		up := (i - 1) / 2
		if !h.above(h.tasks[i], h.tasks[up]) {
			break
		}
		h.tasks[i], h.tasks[up] = h.tasks[up], h.tasks[i]
		i = up
	}
}

func (h *readyHeap) pop() wf.TaskID {
	top, last := h.tasks[0], len(h.tasks)-1
	h.tasks[0] = h.tasks[last]
	h.tasks = h.tasks[:last]
	for i := 0; ; {
		next := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < last && h.above(h.tasks[c], h.tasks[next]) {
				next = c
			}
		}
		if next == i {
			return top
		}
		h.tasks[i], h.tasks[next] = h.tasks[next], h.tasks[i]
		i = next
	}
}

// peftHost returns the host of task t minimizing its optimistic EFT,
// EFT + oct[cat], ties broken by less and then by enumeration order, as
// the fold over every host does. Within a category OEFT rises with the
// EFT, so the fold needs only each category's fastest host under less.
// A selection with a non-finite term, where a NaN breaks that order,
// folds over every host.
func (s *state) peftHost(t wf.TaskID, oct []float64) candidate {
	in, terms := s.prepare(t)
	if !s.finite(in, terms) {
		all := s.placeAll(t, in, terms, -1)
		choice := 0
		bestOEFT := math.Inf(1)
		for i, c := range all {
			if oeft := c.eft + oct[c.cat]; oeft < bestOEFT || (oeft == bestOEFT && less(c, all[choice])) {
				bestOEFT, choice = oeft, i
			}
		}
		return all[choice]
	}
	var best candidate
	bestOEFT := math.Inf(1)
	for k := range terms {
		c := s.fastest(t, in, terms, k)
		if oeft := c.eft + oct[k]; k == 0 || oeft < bestOEFT || oeft == bestOEFT && ahead(&c, &best) {
			best, bestOEFT = c, oeft
		}
	}
	return best
}

// octTable computes OCT(t, cat) by reverse topological traversal.
func octTable(ctx *context) ([][]float64, error) {
	order, err := ctx.w.TopoOrder()
	if err != nil {
		return nil, err
	}
	k := ctx.p.NumCategories()
	n := ctx.w.NumTasks()
	oct := make([][]float64, n)
	flat := make([]float64, n*k)
	for t := range oct {
		oct[t] = flat[t*k : (t+1)*k : (t+1)*k]
	}
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		for cat := 0; cat < k; cat++ {
			worst := 0.0
			for _, e := range ctx.succ[t] {
				comm := e.Size / ctx.p.Bandwidth
				best := math.Inf(1)
				for cat2 := 0; cat2 < k; cat2++ {
					v := oct[e.To][cat2] + ctx.cons[e.To]/ctx.p.Categories[cat2].Speed
					if cat2 != cat {
						v += comm
					}
					if v < best {
						best = v
					}
				}
				if best > worst {
					worst = best
				}
			}
			oct[t][cat] = worst
		}
	}
	return oct, nil
}

// NamePeft identifies the PEFT extension baseline.
const NamePeft Name = "peft"
