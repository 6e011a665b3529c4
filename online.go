package budgetwf

import (
	"budgetwf/internal/online"
	"budgetwf/internal/rng"
	"budgetwf/internal/sim"
	"budgetwf/internal/stoch"
)

// Objective is the paper's bi-criteria goal (Equation (3)): meet the
// deadline D while respecting the budget B. Zero fields disable a
// criterion.
type Objective = sim.Objective

// ObjectiveStats aggregates Objective satisfaction over repeated
// executions.
type ObjectiveStats = sim.ObjectiveStats

// ReplicateObjective runs n (at least 1) stochastic executions of the
// schedule and reports how often each criterion of the objective held.
func ReplicateObjective(w *Workflow, p *Platform, s *Schedule, n int, seed uint64, obj Objective) (*ObjectiveStats, error) {
	b, err := replicate(w, p, s, n, seed, obj.Budget)
	if err != nil {
		return nil, err
	}
	stats, err := b.Objective(obj)
	if err != nil {
		return nil, err
	}
	return &stats, nil
}

// OnlinePolicy configures the online re-scheduling controller — the
// paper's §VI future-work direction, implemented as an extension:
// monitor every computation, interrupt tasks whose duration exceeds
// the (w̄ + k·σ)/s timeout, and restart them on a fresh
// fastest-category VM when the budget guard allows it.
type OnlinePolicy = online.Policy

// OnlineReport is the outcome of one monitored execution, including
// the migrations performed and the timeouts vetoed by the budget
// guard.
type OnlineReport = online.Report

// Migration records one online re-scheduling intervention.
type Migration = online.Migration

// DefaultOnlinePolicy returns 2σ timeouts with one migration per task,
// guarded by the given budget.
func DefaultOnlinePolicy(budget float64) OnlinePolicy {
	return online.DefaultPolicy(budget)
}

// Outliers is the heavy-tail weight model used to evaluate online
// re-scheduling: with probability Prob a realized weight is multiplied
// by Factor, representing the un-modeled "very long durations" (§VI)
// that thin Gaussian tails cannot produce.
type Outliers = stoch.Outliers

// ExecuteOnline runs one monitored execution of the schedule with task
// weights sampled from their distributions.
func ExecuteOnline(w *Workflow, p *Platform, s *Schedule, seed uint64, policy OnlinePolicy) (*OnlineReport, error) {
	return online.ExecuteStochastic(w, p, s, rng.New(seed), policy)
}

// ExecuteOnlineOutliers runs one monitored execution under the
// heavy-tail outlier model, alongside the plain simulator result for
// the same realized weights (the static/online comparison every
// evaluation of the extension needs).
func ExecuteOnlineOutliers(w *Workflow, p *Platform, s *Schedule, seed uint64, o Outliers, policy OnlinePolicy) (static *SimResult, monitored *OnlineReport, err error) {
	weights := sim.SampleWeightsOutliers(w, rng.New(seed), o)
	static, err = sim.Run(w, p, s, weights)
	if err != nil {
		return nil, nil, err
	}
	monitored, err = online.Execute(w, p, s, weights, policy)
	if err != nil {
		return nil, nil, err
	}
	return static, monitored, nil
}
