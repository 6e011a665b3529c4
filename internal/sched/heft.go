package sched

import (
	"budgetwf/internal/obs"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/wf"
)

// Heft is the classical HEFT list scheduler: tasks are processed in
// decreasing upward-rank (bottom-level) order and each is placed on
// the host giving the smallest earliest finish time. Budget-blind —
// equivalently HEFTBUDG with an infinite budget.
func Heft(w *wf.Workflow, p *platform.Platform) (*plan.Schedule, error) {
	return heftPlan(w, p, nil, Options{})
}

// HeftBudg is Algorithm 4: HEFT extended with the budget decomposition
// of Algorithm 1. Each task in rank order is placed on the
// smallest-EFT host whose planner cost fits the task's allowance
// B_T + pot (Algorithm 2, getBestHost).
func HeftBudg(w *wf.Workflow, p *platform.Platform, budget float64) (*plan.Schedule, error) {
	return HeftBudgOpt(w, p, budget, Options{})
}

// heftPlan is the shared HEFT loop. A nil info plans budget-blind
// (infinite allowance). Each task takes pickBest over the hosts the
// readiness index yields (state.hosts), and a traced plan records that
// list as the task's candidates.
func heftPlan(w *wf.Workflow, p *platform.Platform, info *BudgetInfo, opt Options) (*plan.Schedule, error) {
	ctx, err := newContextOpt(w, p, opt)
	if err != nil {
		return nil, err
	}
	order, err := ctx.rankOrder()
	if err != nil {
		return nil, err
	}
	st := newState(ctx)
	account := optPot{disabled: opt.DisablePot}
	totalCost := 0.0
	for _, t := range order {
		if err := opt.stopErr(); err != nil {
			return nil, err
		}
		allowance := infinite
		if info != nil {
			allowance = account.allowance(info.Shares[t])
		}
		in, terms := st.prepare(t)
		used, fresh := st.hosts(t, in, terms, allowance, -1, nil)
		c := pickBest(used, fresh, allowance)
		if opt.span != nil {
			traceCandidates(opt.span, t, allowance, used, fresh)
		}
		st.assign(t, c)
		totalCost += c.cost
		if info != nil {
			account.settle(allowance, c.cost)
		}
		if opt.span != nil {
			if info != nil {
				traceGuard(opt.span, t, c, allowance, account.pot.value)
			}
			tracePlace(opt.span, t, c)
		}
	}
	if opt.span != nil {
		opt.span.Set(obs.Int("walked", st.walked), obs.Int("predEdges", st.predEdges))
	}
	out := st.extract(order)
	out.EstCost = totalCost + initSpent(out, p)
	if info != nil {
		out.EstCost += info.DCReserve
	}
	return out, nil
}
