package sched

import (
	"slices"

	"budgetwf/internal/obs"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/wf"
)

// bdtOpt implements Budget Distribution with Trickling (Arabnejad &
// Barbosa), extended to this paper's application/platform model as
// described in §V-D1:
//
//  1. tasks are grouped into levels (sub-groups of independent tasks);
//
//  2. the budget is shared across levels with the "All in" strategy —
//     the whole remaining budget is tentatively granted to the first
//     task of the current level, and the leftover trickles to the next
//     task;
//
//  3. levels are scheduled in order; inside a level, tasks are sorted
//     by increasing earliest start time, and each picks the host
//     maximizing the time-cost trade-off factor
//
//     TCTF = Time / Cost,
//     Time = (ECT_max − ECT_host) / (ECT_max − ECT_min),
//     Cost = (subBudg − ct_host) / (subBudg − ct_min).
//
// Hosts whose cost exceeds the sub-budget are infeasible; when no host
// is feasible BDT stays true to its "eager scheduling strategy, aiming
// at a very low makespan but at the risk of overspending the budget"
// (§V-D1) and takes the smallest-ECT host anyway — this is what makes
// it fail the validity check for small budgets in Figure 3 while
// producing the shortest makespans when it does fit. To keep the
// comparison fair, BDT is given the same conservative task weights and
// the same datacenter/initialization reserves as the paper's own
// algorithms. Of the Options it honours only the cancellation hook and
// the trace span, which records walked and predEdges: the ablation
// knobs are specific to the paper's own algorithms.
//
// Each selection is pickTCTF's over every host, read from the
// readiness index (state.tctfHost): the VMs that run a predecessor and
// the fresh ones are placed, and of each category's other used VMs the
// few that hold an extremum of ECT or cost or may win: O(deg·k +
// categories·log VMs), with k the VMs that run a predecessor, plus the
// VMs it walks and the cost bands it scans.
func bdtOpt(w *wf.Workflow, p *platform.Platform, budget float64, opt Options) (*plan.Schedule, error) {
	ctx, err := newContext(w, p)
	if err != nil {
		return nil, err
	}
	info, err := ComputeBudget(w, p, budget)
	if err != nil {
		return nil, err
	}
	level, _, err := w.Levels()
	if err != nil {
		return nil, err
	}
	// The tasks by level, in ID order within a level.
	n := w.NumTasks()
	byLevel := make([]wf.TaskID, n)
	for t := range byLevel {
		byLevel[t] = wf.TaskID(t)
	}
	slices.SortStableFunc(byLevel, func(a, b wf.TaskID) int { return level[a] - level[b] })

	st := newState(ctx)
	remaining := info.Calc // trickling account, "All in" strategy
	listT := make([]wf.TaskID, 0, n)
	est := make([]float64, n)
	totalCost := 0.0
	for lo, hi := 0, 0; lo < n; lo = hi {
		for hi < n && level[byLevel[hi]] == level[byLevel[lo]] {
			hi++
		}
		// Sort the level by increasing earliest start time. All
		// predecessors live in earlier levels, so the data-arrival
		// bound, when a fresh VM's inputs are all at the datacenter, is
		// fully determined; the host-availability component is ignored
		// at sorting time (it depends on the choice BDT is about to
		// make).
		tasks := byLevel[lo:hi]
		for _, t := range tasks {
			est[t] = st.inputs(t, -1).dcReady
		}
		slices.SortStableFunc(tasks, func(a, b wf.TaskID) int {
			if est[a] < est[b] || est[a] == est[b] && a < b {
				return -1
			}
			return 1
		})

		for _, t := range tasks {
			if err := opt.stopErr(); err != nil {
				return nil, err
			}
			choice := st.tctfHost(t, remaining)
			st.assign(t, choice)
			remaining -= choice.cost
			totalCost += choice.cost
			listT = append(listT, t)
		}
	}
	if opt.span != nil {
		opt.span.Set(obs.Int("walked", st.walked), obs.Int("predEdges", st.predEdges))
	}
	out := st.extract(listT)
	out.EstCost = totalCost + initSpent(out, p) + info.DCReserve
	return out, nil
}

// pickTCTF selects, from every host of a task in enumeration order,
// the candidate maximizing the time-cost trade-off factor under the
// sub-budget, ties broken by less and then by that order, falling back
// to the smallest-ECT candidate under less (eagerly overspending) when
// none is affordable. A NaN cost (a +Inf price times a zero-size edge)
// is never affordable, and NaNs are skipped by the ECT and ct_min
// folds. It is tctfHost's oracle, and its answer where the index
// cannot serve.
func pickTCTF(cands []candidate, subBudg float64) candidate {
	ectMin, ectMax, ctMin := infinite, -infinite, infinite
	for _, c := range cands {
		if c.eft < ectMin {
			ectMin = c.eft
		}
		if c.eft > ectMax {
			ectMax = c.eft
		}
		if c.cost < ctMin {
			ctMin = c.cost
		}
	}
	best := -1
	bestTCTF := 0.0
	for i, c := range cands {
		if !(c.cost <= subBudg) {
			continue
		}
		tctf := tctfValue(c, subBudg, ctMin, ectMin, ectMax)
		if best < 0 || tctf > bestTCTF ||
			(tctf == bestTCTF && less(c, cands[best])) {
			best = i
			bestTCTF = tctf
		}
	}
	if best >= 0 {
		return cands[best]
	}
	fastest := 0
	for i, c := range cands {
		if less(c, cands[fastest]) {
			fastest = i
		}
	}
	return cands[fastest]
}

func tctfValue(c candidate, subBudg, ctMin, ectMin, ectMax float64) float64 {
	timeF := 1.0
	if ectMax > ectMin {
		timeF = (ectMax - c.eft) / (ectMax - ectMin)
	}
	costF := 1.0
	if subBudg > ctMin {
		costF = (subBudg - c.cost) / (subBudg - ctMin)
	}
	// A host consuming the entire sub-budget has costF == 0; the
	// original formulation divides by it, so guard with a small floor.
	const eps = 1e-12
	if costF < eps {
		costF = eps
	}
	return timeF / costF
}
