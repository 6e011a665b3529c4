package sched

import (
	"fmt"

	"budgetwf/internal/obs"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/sim"
	"budgetwf/internal/wf"
)

// refine is Algorithm 5 (HEFTBUDG+): starting from the HEFTBUDG
// schedule, reconsider every task in priority (ListT) order; for each,
// try moving it to every other used VM and to a fresh VM of each
// category, re-simulate the whole schedule deterministically, and keep
// the move with the shortest makespan that still respects the initial
// budget. This spends the budget fraction left over by HEFTBUDG's
// conservative reservations, at an O(n) multiplicative CPU cost. With
// inverse it is HEFTBUDG+INV, which re-considers tasks in reverse
// priority order: the paper found it to help when leftover budget is
// best spent near the workflow's end.
func refine(w *wf.Workflow, p *platform.Platform, budget float64, inverse bool, opt Options) (*plan.Schedule, error) {
	cur, err := HeftBudgOpt(w, p, budget, Options{stop: opt.stop, span: opt.span})
	if err != nil {
		return nil, err
	}
	ev, res, err := newMoveEval(w, p, cur, opt)
	if err != nil {
		return nil, fmt.Errorf("sched: simulating HEFTBUDG schedule: %w", err)
	}
	defer ev.span.End()
	// The incumbent's figures, copied out of res as CG+ does: the
	// evaluator's next simulation overwrites it.
	minMakespan, cost := res.Makespan, res.TotalCost
	ev.span.Set(obs.Bool("inverse", inverse), obs.Float("baseMakespan", minMakespan))

	order := append([]wf.TaskID(nil), cur.ListT...)
	if inverse {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}

	for _, t := range order {
		best := cur
		err := ev.eachMove(t, &minMakespan, func(vm, cat int, makespan, moveCost float64) {
			if makespan < minMakespan && moveCost < budget {
				best = ev.candidate(t, vm, cat)
				ev.upgrade(t, best, minMakespan, makespan, moveCost)
				minMakespan, cost = makespan, moveCost
			}
		})
		if err != nil {
			return nil, err
		}
		if best != cur {
			cur = best
			if err := ev.rebind(cur); err != nil {
				return nil, err
			}
		}
	}
	ev.finish(minMakespan)
	cur.EstMakespan = minMakespan
	cur.EstCost = cost
	return cur, nil
}

// moveEval scores the candidate moves of the refinement planners
// (HEFTBUDG+, HEFTBUDG+INV, CG+) on one simulation engine bound to the
// incumbent (sim.Runner.ScoreMove: one forward pass resumed from the
// moved task's rank, stopped once the move cannot win) under one
// conservative-weights vector. A candidate schedule is built, by the
// Mover, only when a planner keeps it.
type moveEval struct {
	mover   *plan.Mover
	run     *sim.Runner
	cur     *plan.Schedule // the incumbent run is bound to
	weights []float64
	numCats int
	opt     Options

	// The "refine" span and its totals; the span is nil when untraced.
	span                 *obs.Span
	moves, cut, upgrades int
}

// newMoveEval builds the evaluator and simulates the base schedule; the
// returned Result is valid until the first eachMove.
func newMoveEval(w *wf.Workflow, p *platform.Platform, base *plan.Schedule, opt Options) (*moveEval, *sim.Result, error) {
	run, err := sim.NewRunner(w, p, base)
	if err != nil {
		return nil, nil, err
	}
	ev := &moveEval{
		mover:   plan.NewMover(w.NumTasks()),
		run:     run,
		cur:     base,
		weights: sim.ConservativeWeights(w),
		numCats: p.NumCategories(),
		opt:     opt,
	}
	res, err := run.Run(ev.weights)
	if err != nil {
		return nil, nil, err
	}
	ev.span = opt.span.Child("refine")
	return ev, res, nil
}

// eachMove scores every move of the incumbent's task t to a different
// used VM or to a fresh VM of each category (Algorithm 5, line 7:
// (UsedVM \ sched(T)) ∪ NewVM), in that order, and hands each to visit
// as its target — a used VM, or -1 and a category — with its makespan
// and cost. A move whose makespan reaches *bound, read per candidate,
// is cut without a visit: each planner passes the makespan a kept move
// must beat. The cancellation hook is polled once per candidate.
func (ev *moveEval) eachMove(t wf.TaskID, bound *float64, visit func(vm, cat int, makespan, cost float64)) error {
	used := ev.cur.NumVMs()
	for target := 0; target < used+ev.numCats; target++ {
		if target == ev.cur.TaskVM[t] {
			continue
		}
		if err := ev.opt.stopErr(); err != nil {
			return err
		}
		ev.moves++
		vm, cat := target, 0
		if target >= used {
			vm, cat = -1, target-used
		}
		makespan, cost, ok, err := ev.run.ScoreMove(t, vm, cat, *bound)
		if err != nil {
			return err
		}
		if !ok {
			ev.cut++
			continue
		}
		visit(vm, cat, makespan, cost)
	}
	return nil
}

// candidate returns the incumbent with task t moved to (vm, cat), as
// eachMove named the target, in the Mover's scratch schedule that is
// not the incumbent: the next candidate overwrites it until a rebind
// makes it the incumbent.
func (ev *moveEval) candidate(t wf.TaskID, vm, cat int) *plan.Schedule {
	return ev.mover.Move(ev.cur, t, vm, cat)
}

// rebind makes s the incumbent, validating it in full.
func (ev *moveEval) rebind(s *plan.Schedule) error {
	ev.cur = s
	return ev.run.Rebind(s)
}

// upgrade records that moving t made s the incumbent.
func (ev *moveEval) upgrade(t wf.TaskID, s *plan.Schedule, makespanBefore, makespanAfter, cost float64) {
	ev.upgrades++
	if ev.span != nil {
		ev.span.Event("upgrade",
			obs.Int("task", int(t)),
			obs.Int("toVM", s.TaskVM[t]),
			obs.Float("makespanBefore", makespanBefore),
			obs.Float("makespanAfter", makespanAfter),
			obs.Float("cost", cost))
	}
}

// finish records the refinement's totals on its span: beside the moves
// tried, cut and kept, the tasks the move passes ran and the cuts the
// tail bound made (sim.Runner.MoveCounts).
func (ev *moveEval) finish(makespan float64) {
	scored, byBound := ev.run.MoveCounts()
	ev.span.Set(obs.Int("movesTried", ev.moves), obs.Int("movesCut", ev.cut), obs.Int("cutByBound", byBound),
		obs.Int("upgrades", ev.upgrades), obs.Int("scored", scored), obs.Float("finalMakespan", makespan))
}
