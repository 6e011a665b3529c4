package sched

// The package-level planner type is also named context, so the
// standard library package gets an explicit name here.
import (
	stdcontext "context"

	"budgetwf/internal/obs"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/wf"
)

// PlanContext plans with the named algorithm under a context:
// cancellation (or deadline expiry) is polled between placement steps
// of every list scheduler and between candidate moves of the
// refinement algorithms, so an abandoned request stops consuming CPU
// within one placement step rather than running to completion. The
// serving daemon (internal/server) relies on this to enforce
// per-request timeouts.
//
// The name resolves through ByName, "<base>-spot" twins included, and
// a background context makes PlanContext equivalent to
// ByName(name).Plan — the hook then costs one nil check per step.
//
// When the context carries an obs span (obs.WithSpan), PlanContext
// opens a child span named "plan:<algorithm>" and the planners emit
// their decision trace into it: per-task candidate evaluations with
// EFT and charged cost, budget-guard admit/reject verdicts with the
// remaining pot, the Algorithm 1 budget decomposition, and the
// refinement upgrades of HEFTBUDG+/+INV and CG+. Without a span in the
// context the instrumentation is a nil check per placement step.
func PlanContext(ctx stdcontext.Context, name Name, w *wf.Workflow, p *platform.Platform, budget float64) (*plan.Schedule, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a, err := ByName(name)
	if err != nil {
		return nil, err
	}
	opt := Options{stop: ctx.Err}
	if parent := obs.SpanFromContext(ctx); parent != nil {
		span := parent.Child("plan:" + string(name))
		span.Set(obs.Str("algorithm", string(name)),
			obs.Int("tasks", w.NumTasks()),
			obs.Float("budget", budget))
		defer span.End()
		opt.span = span
	}
	return a.planOpt(w, p, budget, opt)
}
