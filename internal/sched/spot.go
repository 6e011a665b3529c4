package sched

import (
	"sort"
	"strings"

	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/wf"
)

// Spot-aware planner variants. Every registered algorithm gains a
// "<name>-spot" twin (resolved by ByName) that prices preemption risk
// into the budget guard before delegating to the base planner:
//
//  1. It plans against a rework-inflated copy of the platform where
//     each spot category's per-second rate carries the expected cost
//     of a revocation, E[cost | preempted]·P(preempted per second) =
//     λ·(½·d̄·c_spot + c_ini,sib + d̄·c_sib): half a mean task of spot
//     billing wasted, plus the resubmit-on-revoke reserve — a fresh
//     on-demand sibling's setup fee and a full re-run at its rate.
//     The base algorithm's own budget guard (Equation (5) shares,
//     allowances, the pot) then charges that reserve implicitly, so a
//     plan that fills the budget with nominal spot prices is rejected
//     exactly when its revocation exposure could blow the budget.
//  2. It then pins every VM carrying a sink task (no successors) to
//     the spot category's on-demand sibling: losing a sink loses the
//     workflow's output, so exit tasks never ride preemptible
//     capacity. The sibling has the same speed, provider, bandwidth
//     and boot delay, so the timeline is unchanged.
//
// On a platform without spot categories the variant is the base
// algorithm, byte for byte.

// spotSuffix marks the spot-aware twin of a base algorithm name.
const spotSuffix = "-spot"

// spotBase extracts the base algorithm name from "<base>-spot".
func spotBase(n Name) (Name, bool) {
	s := string(n)
	if !strings.HasSuffix(s, spotSuffix) || len(s) == len(spotSuffix) {
		return "", false
	}
	return Name(strings.TrimSuffix(s, spotSuffix)), true
}

// SpotVariant wraps a base algorithm into its spot-aware twin. The
// twin hands its Options to the base, so it is cancelled and traced
// exactly as the base is.
func SpotVariant(base Algorithm) Algorithm {
	return registered(base.Name+Name(spotSuffix), base.NeedsBudget, func(w *wf.Workflow, p *platform.Platform, budget float64, opt Options) (*plan.Schedule, error) {
		if !p.HasSpot() {
			return base.planOpt(w, p, budget, opt)
		}
		eff, toOrig := reworkInflated(w, p)
		s, err := base.planOpt(w, eff, budget, opt)
		if err != nil {
			return nil, err
		}
		// The effective platform re-sorts categories by inflated
		// cost; map the plan back onto the caller's indices.
		for i, cat := range s.VMCats {
			s.VMCats[i] = toOrig[cat]
		}
		demoteSinksToOnDemand(w, p, s)
		return s, nil
	})
}

// reworkInflated returns a copy of the platform whose spot categories
// are priced at their revocation-adjusted effective rate, re-sorted by
// cost (the platform invariant), plus the mapping from the copy's
// category indices back to the original's.
func reworkInflated(w *wf.Workflow, p *platform.Platform) (*platform.Platform, []int) {
	n := w.NumTasks()
	meanWork := 0.0
	if n > 0 {
		meanWork = w.TotalConservativeWork() / float64(n)
	}
	type indexed struct {
		cat  platform.Category
		orig int
	}
	cats := make([]indexed, len(p.Categories))
	for i, c := range p.Categories {
		if c.Spot && c.RevocationRatePerHour > 0 {
			sib := p.Categories[p.OnDemandSibling(i)]
			dbar := meanWork / c.Speed // mean conservative task duration on this category
			lambda := c.RevocationRatePerHour / 3600
			c.CostPerSec += lambda * (0.5*dbar*c.CostPerSec + sib.InitCost + dbar*sib.CostPerSec)
		}
		cats[i] = indexed{cat: c, orig: i}
	}
	sort.SliceStable(cats, func(a, b int) bool { return cats[a].cat.CostPerSec < cats[b].cat.CostPerSec })
	eff := *p
	eff.Categories = make([]platform.Category, len(cats))
	toOrig := make([]int, len(cats))
	for i, ic := range cats {
		eff.Categories[i] = ic.cat
		toOrig[i] = ic.orig
	}
	return &eff, toOrig
}

// demoteSinksToOnDemand retargets every VM hosting a sink task from a
// spot category to its on-demand sibling, in place. Same speed, same
// provider: the schedule's timeline and validity are untouched, only
// the exit tasks' exposure to revocation is removed.
func demoteSinksToOnDemand(w *wf.Workflow, p *platform.Platform, s *plan.Schedule) {
	for v, cat := range s.VMCats {
		if !p.Categories[cat].Spot {
			continue
		}
		hostsSink := false
		for _, t := range s.Order[v] {
			if w.NumSucc(t) == 0 {
				hostsSink = true
				break
			}
		}
		if hostsSink {
			s.VMCats[v] = p.OnDemandSibling(cat)
		}
	}
}
