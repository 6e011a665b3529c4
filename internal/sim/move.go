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
// times and VMs the candidate's table. An execution or a bind may
// overwrite any of them, so both invalidate the checkpoint.
type moveCheckpoint struct {
	valid       bool
	at          int
	vms         []VM
	first, last float64
	mover       *plan.Mover // the candidates of the event-loop fallback
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
// provably reaches bound; +Inf scores every candidate in full. A move
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
	e.VMs = append(e.VMs[:0], mc.vms...)
	if vm < 0 {
		vm = len(e.VMs)
		e.VMs = append(e.VMs, VM{Cat: cat})
	}
	e.Cur[t] = vm
	_, _, ok = e.pass(e.VMs, s.ListT[k:], e.Cur, e.dcReadyTime, mc.first, mc.last, bound)
	e.Cur[t] = s.TaskVM[t]
	if !ok {
		return 0, 0, false, nil
	}
	makespan, cost, _ = e.collectScore()
	return makespan, cost, true, nil
}

// resume moves the checkpoint to t's rank and returns the rank: forward
// by running the bound schedule's pass over the tasks in between,
// backward by starting over from rank 0. A checkpoint of a new binding
// or new weights starts at rank 0 with the ranks and the assignment
// copied into the engine.
func (mc *moveCheckpoint) resume(e *Exec, t wf.TaskID) int {
	s := e.st.s
	if !mc.valid {
		for i, u := range s.ListT {
			e.missing[u] = i
		}
		copy(e.Cur, s.TaskVM)
		if m := s.NumVMs(); cap(e.VMs) < m+1 {
			e.VMs = make([]VM, 0, m+1)
		}
		mc.valid, mc.at = true, len(s.TaskVM)+1
	}
	k := e.missing[t]
	if k < mc.at {
		if m := s.NumVMs(); cap(mc.vms) < m {
			mc.vms = make([]VM, 0, m)
		}
		mc.vms = mc.vms[:0]
		for _, cat := range s.VMCats {
			mc.vms = append(mc.vms, VM{Cat: cat})
		}
		mc.at, mc.first, mc.last = 0, math.Inf(1), 0
	}
	mc.first, mc.last, _ = e.pass(mc.vms, s.ListT[mc.at:k], e.Cur, e.dcReadyTime, mc.first, mc.last, math.Inf(1))
	mc.at = k
	return k
}
