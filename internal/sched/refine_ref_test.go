package sched

import (
	"fmt"

	"budgetwf/internal/obs"
	"budgetwf/internal/plan"
	"budgetwf/internal/plan/plantest"
	"budgetwf/internal/platform"
	"budgetwf/internal/sim"
	"budgetwf/internal/wf"
)

// The refinement planners as they were before moveEval: every
// candidate move is a cloned, compacted schedule and a one-shot
// sim.Run that builds its own engine. Kept as the reference the
// in-place evaluation must reproduce bit for bit (refine_equiv_test.go),
// the way hash_ref_test.go keeps wf's canonicalHashReference.

// moveCandidatesReference generates every schedule obtained by moving
// task t to a different used VM or to a fresh VM of each category.
func moveCandidatesReference(s *plan.Schedule, t wf.TaskID, numCats int) []*plan.Schedule {
	var out []*plan.Schedule
	curVM := s.TaskVM[t]
	for vm := range s.VMCats {
		if vm == curVM {
			continue
		}
		c := s.Clone()
		c.TaskVM[t] = vm
		plantest.CompactVMs(c)
		out = append(out, c)
	}
	for cat := 0; cat < numCats; cat++ {
		c := s.Clone()
		c.TaskVM[t] = c.AddVM(cat)
		plantest.CompactVMs(c)
		out = append(out, c)
	}
	return out
}

func refineReference(w *wf.Workflow, p *platform.Platform, budget float64, inverse bool, opt Options) (*plan.Schedule, error) {
	cur, err := HeftBudgOpt(w, p, budget, Options{stop: opt.stop, span: opt.span})
	if err != nil {
		return nil, err
	}
	weights := sim.ConservativeWeights(w)
	res, err := sim.Run(w, p, cur, weights)
	if err != nil {
		return nil, fmt.Errorf("sched: simulating HEFTBUDG schedule: %w", err)
	}
	minMakespan, cost := res.Makespan, res.TotalCost

	span := opt.span.Child("refine")
	span.Set(obs.Bool("inverse", inverse), obs.Float("baseMakespan", minMakespan))
	defer span.End()

	order := append([]wf.TaskID(nil), cur.ListT...)
	if inverse {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}

	moves, cut, upgrades := 0, 0, 0
	for _, t := range order {
		best := cur
		for _, cand := range moveCandidatesReference(cur, t, p.NumCategories()) {
			if err := opt.stopErr(); err != nil {
				return nil, err
			}
			moves++
			r, err := sim.Run(w, p, cand, weights)
			if err != nil {
				continue
			}
			if r.Makespan >= minMakespan {
				cut++ // what the evaluator stops early: no shorter schedule
			}
			if r.Makespan < minMakespan && r.TotalCost < budget {
				best = cand
				upgrades++
				if span != nil {
					span.Event("upgrade",
						obs.Int("task", int(t)),
						obs.Int("toVM", best.TaskVM[t]),
						obs.Float("makespanBefore", minMakespan),
						obs.Float("makespanAfter", r.Makespan),
						obs.Float("cost", r.TotalCost))
				}
				minMakespan, cost = r.Makespan, r.TotalCost
			}
		}
		cur = best
	}
	span.Set(obs.Int("movesTried", moves), obs.Int("movesCut", cut), obs.Int("upgrades", upgrades),
		obs.Float("finalMakespan", minMakespan))
	cur.EstMakespan = minMakespan
	cur.EstCost = cost
	return cur, nil
}

func cgPlusReference(w *wf.Workflow, p *platform.Platform, budget float64, opt Options) (*plan.Schedule, error) {
	cur, err := cgOpt(w, p, budget, opt)
	if err != nil {
		return nil, err
	}
	res, err := sim.RunDeterministic(w, p, cur)
	if err != nil {
		return nil, fmt.Errorf("sched: simulating CG schedule: %w", err)
	}

	maxIters := 4 * w.NumTasks()
	for iter := 0; iter < maxIters; iter++ {
		type move struct {
			sched *plan.Schedule
			res   *sim.Result
			ratio float64
		}
		var best *move
		for _, t := range res.CriticalPath() {
			for _, cand := range moveCandidatesReference(cur, t, p.NumCategories()) {
				if err := opt.stopErr(); err != nil {
					return nil, err
				}
				r, err := sim.RunDeterministic(w, p, cand)
				if err != nil {
					continue
				}
				dT := res.Makespan - r.Makespan
				dC := r.TotalCost - res.TotalCost
				if dT <= 0 || dC <= 0 || r.TotalCost > budget {
					continue
				}
				ratio := dT / dC
				if best == nil || ratio > best.ratio {
					best = &move{sched: cand, res: r, ratio: ratio}
				}
			}
		}
		if best == nil {
			break
		}
		cur, res = best.sched, best.res
	}
	cur.EstMakespan = res.Makespan
	cur.EstCost = res.TotalCost
	return cur, nil
}

// referencePlanner returns the reference twin of a refinement planner
// name, spot variants included (the same SpotVariant wrapper around
// the reference base).
func referencePlanner(name Name) Algorithm {
	base, spot := name, false
	if b, ok := spotBase(name); ok {
		base, spot = b, true
	}
	a := Algorithm{Name: base, NeedsBudget: true}
	switch base {
	case NameHeftBudgPlus, NameHeftBudgPlusInv:
		inverse := base == NameHeftBudgPlusInv
		a.Plan = func(w *wf.Workflow, p *platform.Platform, budget float64) (*plan.Schedule, error) {
			return refineReference(w, p, budget, inverse, Options{})
		}
	case NameCGPlus:
		a.Plan = func(w *wf.Workflow, p *platform.Platform, budget float64) (*plan.Schedule, error) {
			return cgPlusReference(w, p, budget, Options{})
		}
	default:
		panic("no reference planner for " + string(name))
	}
	if spot {
		return SpotVariant(a)
	}
	return a
}
