// Package plan defines the schedule representation exchanged between
// the scheduling algorithms (internal/sched) and the discrete-event
// simulator (internal/sim): which VMs are provisioned, of which
// category, which VM runs each task, and in which order.
//
// Keeping this type in its own package breaks the dependency cycle
// that HEFTBUDG+ would otherwise create: the refinement algorithms in
// internal/sched evaluate candidate schedules by calling the simulator,
// and the simulator consumes schedules.
package plan

import (
	"fmt"

	"budgetwf/internal/wf"
)

// Unassigned marks a task without a VM in TaskVM.
const Unassigned = -1

// Schedule is a complete mapping of a workflow onto provisioned VMs.
type Schedule struct {
	// VMCats holds the platform category index of each provisioned VM;
	// len(VMCats) is the number of VMs.
	VMCats []int
	// TaskVM maps each task (by ID) to the index of its VM.
	TaskVM []int
	// ListT is the global priority order the scheduler used (HEFT rank
	// order for the HEFT family, assignment order for MIN-MIN). The
	// refinement algorithms iterate over it, and per-VM execution
	// orders are derived from it.
	ListT []wf.TaskID
	// Order gives, for each VM, the execution order of its tasks. It
	// is always consistent with ListT (stable-sorted by ListT rank).
	Order [][]wf.TaskID
	// EstMakespan and EstCost are the planner's own estimates under
	// conservative weights; the authoritative values come from the
	// simulator.
	EstMakespan float64
	EstCost     float64
}

// New returns an empty schedule for n tasks.
func New(n int) *Schedule {
	s := &Schedule{TaskVM: make([]int, n)}
	for i := range s.TaskVM {
		s.TaskVM[i] = Unassigned
	}
	return s
}

// NumVMs returns the number of provisioned VMs.
func (s *Schedule) NumVMs() int { return len(s.VMCats) }

// AddVM provisions a VM of the given category and returns its index.
func (s *Schedule) AddVM(cat int) int {
	s.VMCats = append(s.VMCats, cat)
	s.Order = append(s.Order, nil)
	return len(s.VMCats) - 1
}

// Assign places a task on a VM, appending it to the VM's order.
func (s *Schedule) Assign(t wf.TaskID, vmIdx int) {
	s.TaskVM[t] = vmIdx
	s.Order[vmIdx] = append(s.Order[vmIdx], t)
}

// Clone returns a deep copy of the schedule. The copy's per-VM orders
// share one backing array, each capped at its own length.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{
		VMCats:      append([]int(nil), s.VMCats...),
		TaskVM:      append([]int(nil), s.TaskVM...),
		ListT:       append([]wf.TaskID(nil), s.ListT...),
		EstMakespan: s.EstMakespan,
		EstCost:     s.EstCost,
	}
	c.Order = make([][]wf.TaskID, len(s.Order))
	total := 0
	for _, o := range s.Order {
		total += len(o)
	}
	arena := make([]wf.TaskID, 0, total)
	for i, o := range s.Order {
		if len(o) > 0 {
			start := len(arena)
			arena = append(arena, o...)
			c.Order[i] = arena[start:len(arena):len(arena)]
		}
	}
	return c
}

// RebuildOrder recomputes every VM's execution order from TaskVM and
// ListT: tasks on one VM run in ListT-rank order (a task listed twice
// ranks at its last occurrence). Tasks missing from ListT keep
// relative ID order after listed ones; in practice ListT always covers
// all tasks. The orders share one backing array.
func (s *Schedule) RebuildOrder() {
	n := len(s.TaskVM)
	s.Order = make([][]wf.TaskID, len(s.VMCats))
	s.fillOrder(make([]int, n), make([]int, len(s.VMCats)+1), make([]wf.TaskID, n))
}

// fillOrder is RebuildOrder on caller-owned scratch — rank and arena of
// len(TaskVM), start of len(VMCats)+1, and s.Order already len(VMCats)
// — so the refinement planners (Mover) rebuild the orders of every
// candidate move without allocating. It is a linear bucket fill: each
// VM owns the arena segment sized by its task count, and walking ListT
// in order appends each task to its VM's segment.
func (s *Schedule) fillOrder(rank, start []int, arena []wf.TaskID) {
	n := len(s.TaskVM)
	for t := range rank {
		rank[t] = -1
	}
	for i, t := range s.ListT {
		if t >= 0 && int(t) < n {
			rank[t] = i
		}
	}
	for v := range start {
		start[v] = 0
	}
	for _, vm := range s.TaskVM {
		if vm != Unassigned {
			start[vm+1]++
		}
	}
	for v := range s.Order {
		start[v+1] += start[v]
		s.Order[v] = nil
		if start[v+1] > start[v] {
			// Capacity stops at the segment's end: appends below fill it
			// exactly, and a later Assign cannot spill into the next VM.
			s.Order[v] = arena[start[v]:start[v]:start[v+1]]
		}
	}
	place := func(t wf.TaskID) {
		if vm := s.TaskVM[t]; vm != Unassigned {
			s.Order[vm] = append(s.Order[vm], t)
		}
	}
	for i, t := range s.ListT {
		if t >= 0 && int(t) < n && rank[t] == i {
			place(t)
		}
	}
	for t := range rank {
		if rank[t] < 0 {
			place(wf.TaskID(t))
		}
	}
}

// Validate checks the schedule against a workflow and a category
// count: every task assigned to a valid VM, orders consistent with
// TaskVM and free of duplicates, and every per-VM order topologically
// consistent (no task placed after one of its descendants on the same
// VM, which would deadlock execution).
func (s *Schedule) Validate(w *wf.Workflow, numCats int) error {
	return s.ValidateBuf(w, numCats, nil)
}

// ValidateBuf is Validate on a caller-owned scratch slice (allocated
// here when shorter than the task count), for callers that validate
// many schedules of one workflow.
func (s *Schedule) ValidateBuf(w *wf.Workflow, numCats int, pos []int) error {
	n := w.NumTasks()
	if len(s.TaskVM) != n {
		return fmt.Errorf("plan: TaskVM has %d entries, workflow has %d tasks", len(s.TaskVM), n)
	}
	for i, cat := range s.VMCats {
		if cat < 0 || cat >= numCats {
			return fmt.Errorf("plan: VM %d has invalid category %d", i, cat)
		}
	}
	for t, vm := range s.TaskVM {
		if vm == Unassigned {
			return fmt.Errorf("plan: task %d unassigned", t)
		}
		if vm < 0 || vm >= len(s.VMCats) {
			return fmt.Errorf("plan: task %d assigned to invalid VM %d", t, vm)
		}
	}
	if len(s.Order) != len(s.VMCats) {
		return fmt.Errorf("plan: Order has %d VMs, VMCats has %d", len(s.Order), len(s.VMCats))
	}
	// pos[t] is t's position in its VM's order, -1 until seen.
	if len(pos) < n {
		pos = make([]int, n)
	}
	pos = pos[:n]
	for t := range pos {
		pos[t] = -1
	}
	for vmIdx, order := range s.Order {
		for i, t := range order {
			if int(t) < 0 || int(t) >= n {
				return fmt.Errorf("plan: VM %d order mentions invalid task %d", vmIdx, t)
			}
			if pos[t] >= 0 {
				return fmt.Errorf("plan: task %d appears twice in orders", t)
			}
			pos[t] = i
			if s.TaskVM[t] != vmIdx {
				return fmt.Errorf("plan: task %d in VM %d order but TaskVM says %d", t, vmIdx, s.TaskVM[t])
			}
		}
	}
	for t := 0; t < n; t++ {
		if pos[t] < 0 {
			return fmt.Errorf("plan: task %d missing from VM orders", t)
		}
	}
	// Per-VM order must respect the precedence relation restricted to
	// tasks sharing a VM; otherwise the FIFO executor deadlocks.
	for _, e := range w.EdgesView() {
		if s.TaskVM[e.From] == s.TaskVM[e.To] && pos[e.From] >= pos[e.To] {
			return fmt.Errorf("plan: VM %d runs task %d before its predecessor %d", s.TaskVM[e.To], e.To, e.From)
		}
	}
	return nil
}
