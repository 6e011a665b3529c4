package sched

import (
	"budgetwf/internal/obs"
	"budgetwf/internal/wf"
)

// Planner tracing (internal/obs). Every helper takes the Options span
// and is only invoked behind a nil check at the call site, so with
// tracing disabled the planners pay one pointer comparison per
// placement step. With tracing enabled, the candidates recorded are
// the hosts the selection read (state.hosts), not every host.

// traceBudgetInfo records the Algorithm 1 decomposition on the plan
// span: the reserves, B_calc and the sequential-execution estimate.
func traceBudgetInfo(span *obs.Span, info *BudgetInfo) {
	span.Event("budget-decomposition",
		obs.Float("bIni", info.Initial),
		obs.Float("dcReserve", info.DCReserve),
		obs.Float("initReserve", info.InitReserve),
		obs.Float("bCalc", info.Calc),
		obs.Float("seqDuration", info.SeqDuration))
}

// traceCandidates records the host options a selection read for task
// t, used VMs then fresh ones, with their EFT, charged cost and
// feasibility under the allowance — the raw material of Algorithm 2's
// selection.
func traceCandidates(span *obs.Span, t wf.TaskID, allowance float64, used, fresh []candidate) {
	for _, part := range [2][]candidate{used, fresh} {
		for _, c := range part {
			span.Event("candidate",
				obs.Int("task", int(t)),
				obs.Int("vm", c.vm),
				obs.Int("cat", c.cat),
				obs.Float("eft", c.eft),
				obs.Float("cost", c.cost),
				obs.Bool("feasible", c.cost <= allowance))
		}
	}
}

// traceGuard records the budget guard's verdict for one placement:
// whether the chosen host fit the task's allowance (admit) or the
// planner fell back to the cheapest host (reject), plus the leftover
// handed to the pot.
func traceGuard(span *obs.Span, t wf.TaskID, c candidate, allowance, potAfter float64) {
	span.Event("budget-guard",
		obs.Int("task", int(t)),
		obs.Float("allowance", allowance),
		obs.Float("cost", c.cost),
		obs.Bool("admitted", c.cost <= allowance),
		obs.Float("remaining", potAfter))
}

// tracePlace records the committed placement of one task.
func tracePlace(span *obs.Span, t wf.TaskID, c candidate) {
	span.Event("place",
		obs.Int("task", int(t)),
		obs.Int("vm", c.vm),
		obs.Int("cat", c.cat),
		obs.Bool("fresh", c.vm < 0),
		obs.Float("begin", c.begin),
		obs.Float("eft", c.eft),
		obs.Float("cost", c.cost))
}
