package sched

import "budgetwf/internal/wf"

// Insertion-based placement: the original HEFT formulation looks for
// the earliest idle *gap* in a host's timeline that fits the task,
// instead of appending after the host's last task. The paper's
// algorithms use the append policy (a host's availability is a single
// instant); this file adds insertion as an option so the difference
// can be measured (see the insertion ablation in bench_test.go and
// TestInsertionNeverWorseDeterministically).
//
// A slot covers a task's staging AND computation — the VM is busy for
// both — so a gap is the open interval between one task's compute end
// and the next task's staging start. Insertions before a VM's first
// slot are not attempted: the simulator books a VM when its first
// task's data is ready, so prepending a task would shift the boot
// earlier and planner and engine would disagree on the timeline.

// evalInsertion returns the candidate for task t inserted into the earliest
// fitting gap of VM v, mirroring eval()'s cost accounting. Feasible
// only when the VM already has at least one slot.
func (s *state) evalInsertion(t wf.TaskID, vmIdx int) (candidate, bool) {
	vm := &s.vms[vmIdx]
	if len(vm.slots) == 0 {
		return candidate{}, false
	}
	in := taskInputs{missing: s.ctx.tasks[t].ExternalIn}
	for _, e := range s.ctx.pred[t] {
		from, arr, cost := s.upload(e)
		if from != vmIdx {
			in.add(e.Size, arr, cost)
		} else if s.finish[e.From] > in.dcReady {
			// Local data exists only once the predecessor has computed
			// — the append policy got this for free (readyAt bounds
			// everything on the VM), insertion must enforce it.
			in.dcReady = s.finish[e.From]
		}
	}
	k := s.catTerms(t, in, vm.cat)

	// Walk the gaps between consecutive slots, then the open tail.
	for i := 1; i <= len(vm.slots); i++ {
		gapStart := vm.slots[i-1].end
		begin := gapStart
		if in.dcReady > begin {
			begin = in.dcReady
		}
		eft := begin + k.work
		if i < len(vm.slots) {
			if eft > vm.slots[i].start {
				continue // does not fit; try the next gap
			}
			// Inside an existing gap: the VM is alive anyway, so only
			// the transfer side costs are charged.
			return candidate{vm: vmIdx, cat: vm.cat, begin: begin, eft: eft, cost: in.srcCost + k.out, slot: i}, true
		}
		// Tail: identical to the append policy.
		billed := eft - vm.readyAt
		return candidate{vm: vmIdx, cat: vm.cat, begin: begin, eft: eft, cost: billed*k.chost + in.srcCost + k.out, slot: i}, true
	}
	return candidate{}, false
}

// assignInsertion commits an insertion candidate.
func (s *state) assignInsertion(t wf.TaskID, c candidate) {
	vm := &s.vms[c.vm]
	vm.slots = append(vm.slots, slot{})
	copy(vm.slots[c.slot+1:], vm.slots[c.slot:])
	vm.slots[c.slot] = slot{start: c.begin, end: c.eft, task: t}
	if c.eft > vm.readyAt {
		vm.readyAt = c.eft
	}
	s.taskVM[t] = c.vm
	s.finish[t] = c.eft
}
