package sched

import (
	"fmt"
	"math"

	"budgetwf/internal/obs"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/wf"
)

// cgOpt implements Critical Greedy (Wu et al.), extended to this paper's
// model as described in §V-D2. CG first computes a global budget
// factor
//
//	gb = (B − c_min) / (c_max − c_min)
//
// where c_min (resp. c_max) is the cost of computing every task on the
// cheapest (resp. most expensive) VM category. Each task t is then
// pre-granted the budget fraction c_t,min + (c_t,max − c_t,min)·gb and
// assigned to the VM category whose cost for t is closest to that
// fraction in absolute value; among instances of that category (used
// ones plus a fresh one) the earliest-finish-time host wins. Task
// ordering is not specified in the original, so the paper (and we) use
// HEFT rank order. The original has no data transfers; the extension
// inherits this package's transfer-aware EFT and cost accounting.
func cgOpt(w *wf.Workflow, p *platform.Platform, budget float64, opt Options) (*plan.Schedule, error) {
	ctx, err := newContext(w, p)
	if err != nil {
		return nil, err
	}
	order, err := ctx.rankOrder()
	if err != nil {
		return nil, err
	}
	info, err := ComputeBudget(w, p, budget)
	if err != nil {
		return nil, err
	}

	// Per-task extreme compute costs across categories.
	n := w.NumTasks()
	tMin := make([]float64, n)
	tMax := make([]float64, n)
	cMinTotal, cMaxTotal := 0.0, 0.0
	for t := 0; t < n; t++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, cat := range p.Categories {
			c := ctx.cons[t] / cat.Speed * cat.CostPerSec
			lo = math.Min(lo, c)
			hi = math.Max(hi, c)
		}
		tMin[t], tMax[t] = lo, hi
		cMinTotal += lo
		cMaxTotal += hi
	}
	gb := 0.0
	if cMaxTotal > cMinTotal {
		gb = (info.Calc - cMinTotal) / (cMaxTotal - cMinTotal)
	}
	gb = math.Max(0, math.Min(1, gb))

	st := newState(ctx)
	totalCost := 0.0
	for _, t := range order {
		if err := opt.stopErr(); err != nil {
			return nil, err
		}
		share := tMin[t] + (tMax[t]-tMin[t])*gb
		cat := closestCategory(ctx, t, share)
		choice := bestOfCategory(st, t, cat)
		st.assign(t, choice)
		totalCost += choice.cost
	}
	if opt.span != nil {
		opt.span.Set(obs.Int("walked", st.walked), obs.Int("predEdges", st.predEdges))
	}
	out := st.extract(order)
	out.EstCost = totalCost + initSpent(out, p) + info.DCReserve
	return out, nil
}

// closestCategory returns the category whose compute cost for t has
// the smallest absolute difference with the pre-granted share.
func closestCategory(ctx *context, t wf.TaskID, share float64) int {
	best, bestDiff := 0, math.Inf(1)
	for k, cat := range ctx.p.Categories {
		diff := math.Abs(ctx.cons[t]/cat.Speed*cat.CostPerSec - share)
		if diff < bestDiff {
			best, bestDiff = k, diff
		}
	}
	return best
}

// bestOfCategory returns the min-EFT candidate among used VMs of the
// given category plus one fresh VM of that category.
func bestOfCategory(st *state, t wf.TaskID, cat int) candidate {
	in, terms := st.prepare(t)
	return st.fastest(t, in, terms, cat)
}

// fastest returns task t's first candidate under less among the used
// VMs of category cat and a fresh one, after prepare(t) returned in and
// terms, from the hosts an infinite allowance reads.
func (s *state) fastest(t wf.TaskID, in taskInputs, terms []catTerms, cat int) candidate {
	used, fresh := s.hosts(t, in, terms, infinite, cat)
	best := fresh[0]
	for _, c := range used {
		if less(c, best) {
			best = c
		}
	}
	return best
}

// cgPlusOpt is CG followed by the CG+ refinement (§V-D2): repeatedly
// re-assign one task of the schedule's critical path to the VM pair
// maximizing ΔT/Δc — the makespan decrease per unit of extra cost —
// until the budget is exhausted or no profitable move remains.
// Faithfully to the original (and to the paper's criticism of it), a
// move that decreases both time and cost has a negative ratio and is
// never selected. The cancellation hook is polled once per candidate
// move: each costs at most one deterministic pass over the schedule,
// so this is the granularity that bounds cancellation latency.
func cgPlusOpt(w *wf.Workflow, p *platform.Platform, budget float64, opt Options) (*plan.Schedule, error) {
	cur, err := cgOpt(w, p, budget, opt)
	if err != nil {
		return nil, err
	}
	ev, res, err := newMoveEval(w, p, cur, opt)
	if err != nil {
		return nil, fmt.Errorf("sched: simulating CG schedule: %w", err)
	}
	defer ev.span.End()
	// The incumbent's figures are copied out of res: the evaluator's
	// next simulation overwrites it.
	makespan, cost, path := res.Makespan, res.TotalCost, res.CriticalPath()
	ev.span.Set(obs.Float("baseMakespan", makespan))

	maxIters := 4 * w.NumTasks()
	for iter := 0; iter < maxIters; iter++ {
		var best struct {
			found                 bool
			task                  wf.TaskID
			vm, cat               int
			makespan, cost, ratio float64
		}
		for _, t := range path {
			// A move no faster than the incumbent has dT <= 0: cut it.
			err := ev.eachMove(t, &makespan, func(vm, cat int, candMakespan, candCost float64) {
				dT := makespan - candMakespan
				dC := candCost - cost
				if dT <= 0 || dC <= 0 || candCost > budget {
					return
				}
				if ratio := dT / dC; !best.found || ratio > best.ratio {
					best.found, best.task, best.vm, best.cat = true, t, vm, cat
					best.makespan, best.cost, best.ratio = candMakespan, candCost, ratio
				}
			})
			if err != nil {
				return nil, err
			}
		}
		if !best.found {
			break
		}
		// The kept move's critical path takes the event engine's blames.
		next := ev.candidate(best.task, best.vm, best.cat)
		if err := ev.rebind(next); err != nil {
			return nil, err
		}
		res, err := ev.run.Run(ev.weights)
		if err != nil {
			return nil, err
		}
		ev.upgrade(best.task, next, makespan, best.makespan, best.cost)
		cur, path, makespan, cost = next, res.CriticalPath(), best.makespan, best.cost
	}
	ev.finish(makespan)
	cur.EstMakespan = makespan
	cur.EstCost = cost
	return cur, nil
}
