package sched

import (
	"math"

	"budgetwf/internal/obs"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/wf"
)

// Options disable individual design choices of the budget-aware
// algorithms for ablation studies (DESIGN.md §3). The zero value is
// the paper's algorithm; each flag removes one safeguard:
//
//   - PlanWithMeanWeights plans with w̄ instead of the conservative
//     w̄+σ (§IV-A), exposing the schedule to weight under-estimation;
//   - DisablePot discards each task's leftover budget instead of
//     trickling it to the next task (Algorithms 3–4's pot);
//   - DisableReserves skips Algorithm 1's datacenter and
//     initialization reserves, splitting the whole budget across
//     tasks.
type Options struct {
	PlanWithMeanWeights bool
	DisablePot          bool
	DisableReserves     bool

	// stop, when non-nil, is polled between placement steps (one per
	// task for the list schedulers, one per candidate move for the
	// refinement algorithms); a non-nil return aborts planning with
	// that error. It is set by PlanContext to thread request
	// cancellation into the planning hot paths; external callers
	// cannot — and need not — set it.
	stop func() error

	// span, when non-nil, receives the planner's decision trace:
	// per-task candidate evaluations, budget-guard verdicts and
	// refinement upgrades (see internal/obs). It is set by PlanContext
	// from the context's span; a nil span keeps every instrumentation
	// site at a single pointer check.
	span *obs.Span
}

// stopErr polls the cancellation hook, if any.
func (o Options) stopErr() error {
	if o.stop == nil {
		return nil
	}
	return o.stop()
}

// MinMinBudgOpt is MIN-MINBUDG (Algorithm 3, minMinPlan) with ablation
// options.
func MinMinBudgOpt(w *wf.Workflow, p *platform.Platform, budget float64, opt Options) (*plan.Schedule, error) {
	info, err := computeBudgetOpt(w, p, budget, opt)
	if err != nil {
		return nil, err
	}
	return minMinPlan(w, p, info, opt)
}

// HeftBudgOpt is HeftBudg with ablation options.
func HeftBudgOpt(w *wf.Workflow, p *platform.Platform, budget float64, opt Options) (*plan.Schedule, error) {
	info, err := computeBudgetOpt(w, p, budget, opt)
	if err != nil {
		return nil, err
	}
	return heftPlan(w, p, info, opt)
}

// computeBudgetOpt runs Algorithm 1 under the given ablations.
func computeBudgetOpt(w *wf.Workflow, p *platform.Platform, budget float64, opt Options) (*BudgetInfo, error) {
	info, err := computeBudgetAblated(w, p, budget, opt)
	if err == nil && opt.span != nil {
		traceBudgetInfo(opt.span, info)
	}
	return info, err
}

// computeBudgetAblated is computeBudgetOpt without the tracing hook.
func computeBudgetAblated(w *wf.Workflow, p *platform.Platform, budget float64, opt Options) (*BudgetInfo, error) {
	target := w
	if opt.PlanWithMeanWeights {
		target = w.WithSigmaRatio(0)
	}
	if !opt.DisableReserves {
		return ComputeBudget(target, p, budget)
	}
	info, err := ComputeBudget(target, p, budget)
	if err != nil {
		return nil, err
	}
	// Redistribute the reserves into the shares, keeping proportions.
	// An infinite budget needs no redistribution (and ∞/∞ would poison
	// the shares with NaN).
	if math.IsInf(budget, 1) {
		info.DCReserve = 0
		info.InitReserve = 0
		return info, nil
	}
	if info.Calc > 0 {
		scale := budget / info.Calc
		for i := range info.Shares {
			info.Shares[i] *= scale
		}
	} else {
		// Degenerate: split the raw budget evenly.
		per := budget / float64(len(info.Shares))
		for i := range info.Shares {
			info.Shares[i] = per
		}
	}
	info.DCReserve = 0
	info.InitReserve = 0
	info.Calc = budget
	return info, nil
}

// newContextOpt builds a planning context honouring the weight option.
func newContextOpt(w *wf.Workflow, p *platform.Platform, opt Options) (*context, error) {
	ctx, err := newContext(w, p)
	if err != nil {
		return nil, err
	}
	if opt.PlanWithMeanWeights {
		for _, t := range w.Tasks() {
			ctx.cons[t.ID] = t.Weight.Mean
		}
	}
	return ctx, nil
}

// optPot wraps pot so DisablePot forgets every leftover.
type optPot struct {
	pot
	disabled bool
}

func (p *optPot) allowance(share float64) float64 {
	if p.disabled {
		return share
	}
	return p.pot.allowance(share)
}

func (p *optPot) settle(allowance, cost float64) {
	if p.disabled {
		return
	}
	p.pot.settle(allowance, cost)
}
