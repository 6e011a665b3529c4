// Package online implements the paper's future-work direction (§VI):
// on-line re-scheduling. "If we monitor the execution of the tasks, we
// can detect unlikely events such as very long durations, and in such
// cases, it could be beneficial to interrupt some tasks and re-schedule
// them onto faster VMs. Such dynamic decisions encompass risks in terms
// of both final makespan and budget."
//
// The controller watches every computation against a timeout derived
// from the planner's own uncertainty model: a task whose computation on
// a VM of speed s exceeds (w̄ + k·σ)/s has, under the Gaussian weight
// model, landed in the distribution's unlucky tail (probability
// ≈ 2.3% for k = 2). When the timeout fires the controller interrupts
// the task and restarts it from scratch on a freshly booked VM of the
// fastest category — provided the budget guard projects the total
// spend to stay within the initial budget, the task is not already on
// the fastest category, and its migration allowance is not exhausted.
//
// This package is a policy layer, not an engine: every execution runs
// on sim.Exec, the engine behind sim.Run, and the controller here
// implements its decision points (sim.Controller). A controller that
// never intervenes leaves the execution the simulation, bit for bit.
//
// The controller is also the failure-aware layer behind internal/fault:
// Policy.Faults injects VM crash-stops, boot failures and transient
// task failures. A crash kills its VM mid-task — in-progress work and
// data that never reached the datacenter are lost, while outputs
// already uploaded survive (checkpoint-on-upload) — and the wasted
// uptime stays billed against the budget. Lost tasks go through the
// configured recovery policy under the same budget guard as
// migrations; when the guard refuses a recovery, or a task exhausts
// its retries, the execution degrades gracefully to a partial Report
// with per-task statuses instead of an error. Executions under
// datacenter contention are refused.
package online

import (
	"budgetwf/internal/fault"
	"budgetwf/internal/obs"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/rng"
	"budgetwf/internal/sim"
	"budgetwf/internal/wf"
)

// Policy configures the online controller. The zero value disables
// rescheduling entirely (infinite timeout).
type Policy struct {
	// TimeoutSigma is k in the timeout (w̄ + k·σ)/s. Zero or negative
	// disables monitoring.
	TimeoutSigma float64
	// GainFactor γ, when positive, extends the timeout to at least
	// γ × (boot + restage + (w̄+kσ)/s_fastest): the task must have
	// consumed at least γ times what a fast restart would cost before
	// an interrupt is considered. This is the classic speculative-
	// execution rule — at the instant a bare kσ timeout fires, an
	// ordinary Gaussian tail and a pathological blow-up look
	// identical, and killing the former never pays; waiting until the
	// restart is clearly amortized filters almost all false positives
	// while still catching severe stragglers.
	GainFactor float64
	// MaxMigrations bounds how many times one task may be restarted;
	// 0 means one migration per task.
	MaxMigrations int
	// Budget is the initial budget B_ini the guard enforces; 0 lifts
	// the guard.
	Budget float64
	// Faults, when non-nil, injects VM crashes, boot failures and
	// transient task failures into the execution and applies the
	// bundled recovery policy (see internal/fault). A nil Faults — or
	// one whose model is fault.NoFaults with nothing to inject — keeps
	// the execution identical to internal/sim.
	Faults *fault.Injection
	// Span, when non-nil, receives the execution's fault-lifecycle
	// trace (internal/obs): crash, boot-failure, task-failure,
	// task-lost, recovery and migration events with their budget-guard
	// vetoes, plus summary attributes when the run settles. A nil Span
	// keeps every emission site at a single pointer check.
	Span *obs.Span
}

// DefaultPolicy returns the recommended configuration: 2σ timeouts
// extended by the gain rule (γ = 1), one migration per task, guarded
// by the given budget.
func DefaultPolicy(budget float64) Policy {
	return Policy{TimeoutSigma: 2, GainFactor: 1, MaxMigrations: 1, Budget: budget}
}

// maxMigrations resolves the per-task migration allowance.
func (p Policy) maxMigrations() int {
	if p.MaxMigrations <= 0 {
		return 1
	}
	return p.MaxMigrations
}

// Migration records one interruption decision.
type Migration struct {
	Task   wf.TaskID
	FromVM int
	ToVM   int
	// At is when the interrupt fired; Wasted is the computation time
	// thrown away on the abandoned VM.
	At     float64
	Wasted float64
}

// Report is the outcome of one monitored execution.
type Report struct {
	// Makespan and TotalCost follow the same definitions as
	// sim.Result (Equations (1)–(3)).
	Makespan  float64
	TotalCost float64
	DCCost    float64
	// XferCost is the inter-provider transfer surcharge (included in
	// TotalCost); zero in the single-provider model.
	XferCost float64
	// NumVMs counts every VM booked, including ones added by
	// migrations.
	NumVMs int
	// Migrations lists the controller's interventions in time order.
	Migrations []Migration
	// Vetoed counts timeouts where the budget guard (or the
	// fastest-category check) blocked a migration.
	Vetoed int

	// Fault-injection outcome (zero values when Policy.Faults is nil).
	// Crashes counts VM crash-stops that destroyed work, BootFailures
	// failed boot attempts, TaskFailures transient task failures.
	Crashes      int
	BootFailures int
	TaskFailures int
	// Recoveries counts recovery provisionings; RecoveriesVetoed counts
	// recoveries (or in-place retries) the budget guard refused.
	Recoveries       int
	RecoveriesVetoed int
	// WastedSeconds totals VM time that was billed but produced nothing:
	// computations and stagings a failure or a lost replica race threw
	// away, plus idle uptime a crash cut short.
	WastedSeconds float64

	// Spot-market outcome (zero values on platforms without spot
	// categories; see internal/market). A spot VM's death is counted as
	// a Revocation, not a Crash. SpotVMs counts booked VMs of spot
	// categories and SpotCost their share of TotalCost. SpotReworkCost
	// totals the billing revocations wasted plus the setup fees of the
	// on-demand replacements booked by resubmit-on-revoke — the realized
	// counterpart of the rework reserve the spot planner prices in.
	SpotVMs        int
	Revocations    int
	SpotCost       float64
	SpotReworkCost float64

	// Completed reports whether every task finished. When false the
	// execution degraded gracefully to a partial result: TaskStatus
	// records the per-task outcome and the spend covers everything that
	// actually ran.
	Completed   bool
	TasksDone   int
	TasksFailed int
	// TaskStatus holds the per-task outcome, indexed by TaskID.
	TaskStatus []fault.TaskStatus
	// Tasks holds per-task realized times, indexed by TaskID; entries
	// of failed tasks are meaningless.
	Tasks []sim.TaskTimes
}

// Execute runs the schedule with the given realized weights under the
// online controller.
func Execute(w *wf.Workflow, p *platform.Platform, s *plan.Schedule, weights []float64, policy Policy) (*Report, error) {
	c, err := newController(w, p, s, weights, policy)
	if err != nil {
		return nil, err
	}
	if err := c.Run(); err != nil {
		return nil, err
	}
	return c.finish(), nil
}

// ExecuteStochastic samples weights and runs one monitored execution.
func ExecuteStochastic(w *wf.Workflow, p *platform.Platform, s *plan.Schedule, r *rng.RNG, policy Policy) (*Report, error) {
	return Execute(w, p, s, sim.SampleWeights(w, r), policy)
}

// ExecuteFaulty validates a fault spec against the platform and runs
// one execution under it with the budget guard set to budget (0 lifts
// the guard). Budget-exhausted recoveries degrade the run to a partial
// Report — they are not errors. A nil spec injects nothing. The
// execution's fault-lifecycle events land on span (see Policy.Span);
// nil means no tracing.
func ExecuteFaulty(w *wf.Workflow, p *platform.Platform, s *plan.Schedule, weights []float64, spec *fault.Spec, budget float64, span *obs.Span) (*Report, error) {
	if err := spec.Validate(p.NumCategories()); err != nil {
		return nil, err
	}
	return Execute(w, p, s, weights, Policy{Budget: budget, Faults: spec.NewInjection(), Span: span})
}
