// Package plantest holds the schedule helpers that only tests use: the
// reference implementations the plan and sched tests compare the
// in-place move evaluation against, and that the sim and online tests
// build random fixtures with. Nothing in production imports it.
package plantest

import "budgetwf/internal/plan"

// CompactVMs removes VMs with no assigned task, renumbering TaskVM,
// and rebuilds the per-VM orders. It is what the refinement planners
// did to every cloned candidate before plan.Mover: moving a VM's last
// task away leaves the VM empty, and an empty VM must not be billed.
func CompactVMs(s *plan.Schedule) {
	used := make([]bool, len(s.VMCats))
	for _, vm := range s.TaskVM {
		if vm != plan.Unassigned {
			used[vm] = true
		}
	}
	remap := make([]int, len(s.VMCats))
	var cats []int
	for i, u := range used {
		if u {
			remap[i] = len(cats)
			cats = append(cats, s.VMCats[i])
		} else {
			remap[i] = plan.Unassigned
		}
	}
	for t, vm := range s.TaskVM {
		if vm != plan.Unassigned {
			s.TaskVM[t] = remap[vm]
		}
	}
	s.VMCats = cats
	s.RebuildOrder()
}
