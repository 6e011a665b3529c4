package plan

import "budgetwf/internal/wf"

// Mover builds the candidate schedules of the refinement planners
// (Algorithm 5's "move task t to another used VM or to a fresh VM of
// each category") in one scratch Schedule, so that evaluating a move
// allocates nothing. A Mover is not safe for concurrent use.
type Mover struct {
	s     Schedule
	rank  []int
	start []int
	arena []wf.TaskID
}

// NewMover returns a Mover for schedules of n tasks. No candidate has
// more than n VMs (none is empty), so nothing grows after this.
func NewMover(n int) *Mover {
	return &Mover{
		s:     Schedule{Order: make([][]wf.TaskID, 0, n)},
		rank:  make([]int, n),
		start: make([]int, n+1),
		arena: make([]wf.TaskID, n),
	}
}

// Move returns base with task t moved to VM vm — or, when vm is
// negative, to a freshly provisioned VM of category cat. A VM the move
// leaves empty is deprovisioned (an empty VM must not be billed) and
// the VMs above it renumbered down, and every per-VM order is rebuilt
// from ListT. base must have every task assigned and no empty VM (what
// the planners produce), and vm must differ from base.TaskVM[t].
//
// The result is the Mover's scratch schedule: it shares base's ListT,
// and the next Move overwrites it. Clone it to keep it.
func (m *Mover) Move(base *Schedule, t wf.TaskID, vm, cat int) *Schedule {
	s := &m.s
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
	s.fillOrder(m.rank, m.start[:nv+1], m.arena)
	return s
}
