package plan

import "budgetwf/internal/wf"

// Mover builds the candidate schedules of the refinement planners
// (Algorithm 5's "move task t to another used VM or to a fresh VM of
// each category") in two scratch Schedules, so that evaluating a move
// allocates nothing and a kept move needs no copy. A Mover is not safe
// for concurrent use.
type Mover struct {
	s     [2]Schedule
	arena [2][]wf.TaskID // s[i]'s per-VM orders
	rank  []int
	start []int
}

// NewMover returns a Mover for schedules of n tasks. No candidate has
// more than n VMs (none is empty), so nothing grows after this.
func NewMover(n int) *Mover {
	m := &Mover{rank: make([]int, n), start: make([]int, n+1)}
	for i := range m.s {
		m.s[i].Order = make([][]wf.TaskID, 0, n)
		m.arena[i] = make([]wf.TaskID, n)
	}
	return m
}

// Move returns base with task t moved to VM vm — or, when vm is
// negative, to a freshly provisioned VM of category cat. A VM the move
// leaves empty is deprovisioned (an empty VM must not be billed) and
// the VMs above it renumbered down, and every per-VM order is rebuilt
// from ListT. base must have every task assigned and no empty VM (what
// the planners produce), and vm must differ from base.TaskVM[t].
//
// The result is whichever of the Mover's two scratch schedules base is
// not: it shares base's ListT, stays intact while it is the base of
// the next Moves, and is overwritten by the first Move from another
// base. So a planner that keeps a move as its next base swaps the two
// schedules instead of cloning; Clone the result to keep it otherwise.
func (m *Mover) Move(base *Schedule, t wf.TaskID, vm, cat int) *Schedule {
	i := 0
	if base == &m.s[0] {
		i = 1
	}
	s := &m.s[i]
	s.ListT = base.ListT
	s.EstMakespan, s.EstCost = base.EstMakespan, base.EstCost
	s.TaskVM = append(s.TaskVM[:0], base.TaskVM...)
	s.VMCats = append(s.VMCats[:0], base.VMCats...)
	if vm < 0 {
		vm = len(s.VMCats)
		s.VMCats = append(s.VMCats, cat)
	}
	old := s.TaskVM[t]
	s.TaskVM[t] = vm
	emptied := true
	for _, v := range s.TaskVM {
		if v == old {
			emptied = false
			break
		}
	}
	if emptied {
		s.VMCats = append(s.VMCats[:old], s.VMCats[old+1:]...)
		for i, v := range s.TaskVM {
			if v > old {
				s.TaskVM[i] = v - 1
			}
		}
	}
	nv := len(s.VMCats)
	s.Order = s.Order[:nv]
	s.fillOrder(m.rank, m.start[:nv+1], m.arena[i])
	return s
}
