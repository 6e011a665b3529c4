package sim

import (
	"errors"
	"fmt"
	"math"

	"budgetwf/internal/plan"
	"budgetwf/internal/wf"
)

// moveCheckpoint is what ScoreMove resumes from: the VM table of the
// bound schedule's pass in ListT order before rank at, under the
// weights of the Runner's last execution, with its earliest booking and
// latest End. A move of the task at rank k changes nothing that runs
// before it, and since every task pulls its inputs, that table holds no
// arrival of an edge into the suffix — in particular none into the
// moved task. The engine's buffers carry the rest: missing holds each
// task's ListT rank, Cur the bound assignment, dcReadyTime the finish
// times and scoreVMs the candidate's table. Beside it sit the tails,
// each task's lower bound on the work after it (buildTail), rebuilt
// with the checkpoint of each new binding or weights. An execution or a
// bind may overwrite any of them, so both invalidate the checkpoint.
type moveCheckpoint struct {
	valid       bool
	at          int
	vms         []scoreVM
	first, last float64
	tail        []float64   // per task, see buildTail
	succ        []int       // per task, the next task on its VM in ListT order, or -1
	vmHead      []int       // per VM, its first task in ListT order, or -1
	vmAt        []int       // per VM, its first task at rank ≥ at, or -1
	mover       *plan.Mover // the candidates of the event-loop fallback

	scored, byBound int // see Runner.MoveCounts
}

// ScoreMove returns what Score would for the bound schedule with task t
// moved — to used VM vm or, when vm is negative, to a fresh VM of
// category cat — as plan.Mover.Move builds that candidate, under the
// weights of the Runner's last Run or Score, which must not have
// changed since. The candidate is never built: the Mover derives every
// VM's order from ListT, so ListT is every candidate's pass order, and
// the pass resumes from t's rank. The checkpoint there is the bound
// schedule's pass up to that rank, advanced from the previous one when
// the moved tasks come in ListT order. An emptied VM is simply never
// booked and a fresh VM sums last, which is the Mover's numbering.
//
// ok is false, with no makespan or cost, once the candidate's makespan
// provably reaches bound; +Inf scores every candidate in full. The pass
// stops once the latest VM End reaches bound past the earliest booking,
// or at the first task whose finish plus its tail — a lower bound on
// the work still to come after it (buildTail, movedTail for t), less a
// rounding margin — does. A move
// no Mover builds — t out of range, vm t's own VM or past the bound
// schedule's VMs, a fresh VM's cat past the platform's categories — is
// an error, as is a ListT that is not a topological permutation of
// every task.
//
// Where Score runs the event loop, ScoreMove binds the candidate with
// the full validation, runs it and re-points the Runner at its
// schedule. Like Score, it invalidates the previous Result.
func (r *Runner) ScoreMove(t wf.TaskID, vm, cat int, bound float64) (makespan, cost float64, ok bool, err error) {
	e := r.eng
	st, s := e.st, e.st.s
	if int(t) < 0 || int(t) >= len(s.TaskVM) || vm == s.TaskVM[t] || vm >= s.NumVMs() ||
		vm < 0 && (cat < 0 || cat >= st.p.NumCategories()) {
		return 0, 0, false, fmt.Errorf("sim: no move of task %d to VM %d of category %d", t, vm, cat)
	}
	if e.weights == nil {
		return 0, 0, false, errors.New("sim: ScoreMove before any execution")
	}
	if e.passOrder(); !st.listTopo {
		return 0, 0, false, errors.New("sim: ListT is not a topological order of every task")
	}
	mc := &r.moves
	if !st.exact {
		if mc.mover == nil {
			mc.mover = plan.NewMover(len(s.TaskVM))
		}
		if err := st.bind(mc.mover.Move(s, t, vm, cat)); err != nil {
			return 0, 0, false, err
		}
		res, err := r.Run(e.weights)
		st.point(s)
		if err != nil {
			return 0, 0, false, err
		}
		return res.Makespan, res.TotalCost, true, nil
	}
	k := mc.resume(e, t)
	if mc.last-mc.first >= bound {
		return 0, 0, false, nil
	}
	tl := mc.tail[t]
	mc.tail[t] = mc.movedTail(e, t, vm)
	e.scoreVMs = append(e.scoreVMs[:0], mc.vms...)
	if vm < 0 {
		vm = len(e.scoreVMs)
		e.scoreVMs = append(e.scoreVMs, scoreVM{cat: cat})
	}
	e.Cur[t] = vm
	first, last, ran, ok := e.pass(e.scoreVMs, s.ListT[k:], e.Cur, e.dcReadyTime, mc.first, mc.last, bound, mc.tail)
	e.Cur[t], mc.tail[t] = s.TaskVM[t], tl
	mc.scored += ran
	if !ok {
		if last-first < bound { // the tail cut it, not the latest End
			mc.byBound++
		}
		return 0, 0, false, nil
	}
	makespan, cost, _ = e.collectScore()
	return makespan, cost, true, nil
}

// resume moves the checkpoint to t's rank and returns the rank: forward
// by running the bound schedule's pass over the tasks in between,
// backward by starting over from rank 0. A checkpoint of a new binding
// or new weights starts at rank 0 with the ranks and the assignment
// copied into the engine and the tails rebuilt.
func (mc *moveCheckpoint) resume(e *Exec, t wf.TaskID) int {
	s := e.st.s
	if !mc.valid {
		for i, u := range s.ListT {
			e.missing[u] = i
		}
		copy(e.Cur, s.TaskVM)
		// A candidate has at most max(n, m) VMs and a fresh one.
		e.scoreVMs = e.scoreTable(e.scoreVMs, max(len(s.TaskVM), s.NumVMs())+1)
		mc.buildTail(e)
		mc.valid, mc.at = true, len(s.TaskVM)+1
	}
	k := e.missing[t]
	if k < mc.at {
		mc.vms = e.scoreTable(mc.vms, 0)
		mc.at, mc.first, mc.last = 0, math.Inf(1), 0
		copy(mc.vmAt, mc.vmHead)
	}
	var ran int
	mc.first, mc.last, ran, _ = e.pass(mc.vms, s.ListT[mc.at:k], e.Cur, e.dcReadyTime, mc.first, mc.last, math.Inf(1), nil)
	mc.scored += ran
	for _, u := range s.ListT[mc.at:k] {
		mc.vmAt[s.TaskVM[u]] = mc.succ[u]
	}
	mc.at = k
	return k
}

// buildTail sets tail[u], in O(n + e), to the longest path after u in
// the bound schedule's disjunctive graph — u's DAG out-edges and the
// edge to the next task on u's VM in ListT order (the Mover's VM
// order) — each task v weighing d_v = fl(w_v/speed) on its bound VM,
// the term the pass adds. It is summed from the far end: tail[u] is the
// largest fl(d_v + tail[v]) over u's successors v, 0 without any. succ,
// vmHead and vmAt come with it, for movedTail.
//
// A lower bound. Move t, of rank k, and let the pass finish u, of rank
// above k. Every path from u runs forward in ListT (it is topological,
// and the VM edges follow it), so it never meets t, and every other
// task keeps its VM: each edge is a precedence of the candidate too,
// v's data-ready time or its VM's freeAt being at least the finish of
// the edge's tail, and the pass adds only terms ≥ 0 on top, d_v last.
// Rounding is monotone, so along the path v_1 … v_L that gives tail[u],
// the last finish, which lastEvent covers, is at least
// S = fl(…fl(fin[u] + d_1) … + d_L). t's own VM edge moves with it,
// which movedTail accounts for.
//
// The margin. With ε = 2⁻⁵³, every term ≥ 0 and X = fin[u] + Σd_i,
// each rounded sum is its exact sum times (1+δ), |δ| ≤ ε (exact when
// subnormal), so S ≥ X(1−ε)^L and, tail[u] taking L−1 roundings (the
// innermost adds 0), B = fl(fin[u] + tail[u]) ≤ X(1+ε)^L. Hence
//
//	S ≥ B(1−ε)^(2L) ≥ B(1 − L·2⁻⁵²).
//
// pass cuts on lb = fl(B − fl(B·c)), c = (L̄+2)·2⁻⁵² exact, where
// L̄ = len(order)−1−i ≥ L counts the tasks after u in ListT. The
// product is B·c(1+δ) unless subnormal, so
//
//	lb ≤ B(1 − c(1−ε))(1+ε) ≤ B(1 + ε − (L+2)(1−ε²)·2⁻⁵²) < B(1 − L·2⁻⁵²) − B·2⁻⁵³,
//
// which leaves room for the product's absolute error 2⁻¹⁰⁷⁵ whenever
// B ≥ 2⁻¹⁰²²; below that every sum is exact, S = B ≥ lb. So lb ≤ S ≤
// lastEvent, first ≥ firstBook, and fl(lb − first) ≥ bound gives
// makespan ≥ bound. A B that overflows makes lb NaN, which never cuts.
func (mc *moveCheckpoint) buildTail(e *Exec) {
	s := e.st.s
	n, m := len(s.TaskVM), s.NumVMs()
	if cap(mc.vmHead) < m {
		// Once per Runner: no planner's schedule has more VMs than tasks.
		mv := max(n, m)
		ints := make([]int, n+2*mv)
		mc.tail = make([]float64, n)
		mc.succ, mc.vmHead, mc.vmAt = ints[:n:n], ints[n:n+mv:n+mv], ints[n+mv:]
	}
	mc.vmHead, mc.vmAt = mc.vmHead[:m], mc.vmAt[:m]
	for v := range mc.vmHead {
		mc.vmHead[v] = -1
	}
	for i := len(s.ListT) - 1; i >= 0; i-- {
		u := s.ListT[i]
		tl, v := e.outTail(u, mc.tail), s.TaskVM[u]
		if x := mc.vmHead[v]; x >= 0 {
			if h := e.dur(wf.TaskID(x)) + mc.tail[x]; h > tl {
				tl = h
			}
		}
		mc.tail[u], mc.succ[u], mc.vmHead[v] = tl, mc.vmHead[v], int(u)
	}
}

// movedTail is the tail of t moved to vm, for the move's pass: t's own
// VM edge is gone, but its DAG edges stay, and on a used VM t now runs
// before that VM's first task past t's rank, vmAt[vm] — a precedence
// of the candidate, since the Mover orders vm by ListT. Both lead to
// tasks of rank above k, whose tails hold.
func (mc *moveCheckpoint) movedTail(e *Exec, t wf.TaskID, vm int) float64 {
	tl := e.outTail(t, mc.tail)
	if vm >= 0 {
		if x := mc.vmAt[vm]; x >= 0 {
			if h := e.dur(wf.TaskID(x)) + mc.tail[x]; h > tl {
				tl = h
			}
		}
	}
	return tl
}

// outTail is the longest fl(d_v + tail[v]) over u's DAG successors v,
// 0 without any.
func (e *Exec) outTail(u wf.TaskID, tail []float64) float64 {
	tl := 0.0
	for _, ei := range e.st.out.Of(u) {
		v := e.st.edges[ei].To
		if h := e.dur(v) + tail[v]; h > tl {
			tl = h
		}
	}
	return tl
}

// dur is the pass's compute term for task v on its bound VM.
func (e *Exec) dur(v wf.TaskID) float64 {
	st := e.st
	return e.weights[v] / st.p.Categories[st.s.VMCats[st.s.TaskVM[v]]].Speed
}
