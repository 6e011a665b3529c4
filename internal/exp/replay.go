package exp

import (
	"context"
	"fmt"

	"budgetwf/internal/est"
	"budgetwf/internal/fault"
	"budgetwf/internal/market"
	"budgetwf/internal/obs"
	"budgetwf/internal/online"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/reqerr"
	"budgetwf/internal/rng"
	"budgetwf/internal/sim"
	"budgetwf/internal/wf"
)

// Replay is the paper's evaluation instrument (§V-A): one schedule
// executed Reps times under sampled task weights and tallied into a
// Batch. The sweep kernels, the deadline frontier, /v1/simulate,
// cmd/simulate and the facade's Replicate functions all fill a Replay
// and call Run, the repository's only loop over replications.
type Replay struct {
	Workflow *wf.Workflow
	Platform *platform.Platform
	Schedule *plan.Schedule
	// Budget is what InBudget is counted against and, where executions
	// can lose work, the guard recoveries are held to; ≤ 0 lifts both.
	Budget float64
	Reps   int // at least 1
	// Estimator is EstimatorMC (or empty) or EstimatorAnalytic.
	Estimator string
	// Faults, when non-nil, is the fault-spec template of every
	// execution; the platform's revocation hazards superpose onto it.
	Faults *fault.Spec
	// Weights.Split(rep) is the stream replication rep draws its task
	// weights from, whatever the back end — a schedule replayed with and
	// without faults sees the same realized weights.
	Weights *rng.RNG
	// Replication rep's fault trace is seeded with FaultSeeds.Split(rep)'s
	// first draw when FaultSeeds is set (the sweeps' rule: common random
	// numbers for every cell deriving the same stream), else with
	// seed + rep (a caller that owns one seed): the template's Seed, or
	// FaultSeed where only the platform's revocations inject.
	FaultSeed  uint64
	FaultSeeds *rng.RNG
	// Span, when non-nil, gets one numbered "replication" child per
	// execution (the analytic back end executes nothing).
	Span *obs.Span
}

// Batch tallies the executions of one Replay, or of several folded with
// Add. It is also a sweep unit's payload on the wire (JSON round-trips
// float64 exactly, so transport cannot perturb a merge).
type Batch struct {
	// Makespans holds completed executions only — the horizon of a run the
	// budget guard or the retry caps cut short is not a makespan — and
	// Costs every execution, spend being real either way; replication order.
	Makespans []float64 `json:"makespans"`
	Costs     []float64 `json:"costs"`
	// Reps counts executions, Completed those that finished every task,
	// InBudget those with Budget ≤ 0 || cost ≤ Budget.
	Reps      int `json:"reps"`
	Completed int `json:"completed,omitempty"`
	InBudget  int `json:"valid,omitempty"`
	// Fault, recovery and spot-market totals (see online.Report); zero,
	// and absent from the wire, where nothing injects or revokes.
	Crashes       int     `json:"crashes,omitempty"`
	BootFailures  int     `json:"bootFailures,omitempty"`
	TaskFailures  int     `json:"taskFailures,omitempty"`
	Recoveries    int     `json:"recoveries,omitempty"`
	Vetoed        int     `json:"vetoed,omitempty"`
	WastedSeconds float64 `json:"wastedSeconds,omitempty"`
	SpotVMs       int     `json:"spotVMs,omitempty"`
	Revocations   int     `json:"revocations,omitempty"`
	SpotCost      float64 `json:"spotCost,omitempty"`
	ReworkCost    float64 `json:"reworkCost,omitempty"`
}

// Add folds o into b, its observations after b's.
func (b *Batch) Add(o Batch) {
	b.Makespans = append(b.Makespans, o.Makespans...)
	b.Costs = append(b.Costs, o.Costs...)
	b.Reps += o.Reps
	b.Completed += o.Completed
	b.InBudget += o.InBudget
	b.Crashes += o.Crashes
	b.BootFailures += o.BootFailures
	b.TaskFailures += o.TaskFailures
	b.Recoveries += o.Recoveries
	b.Vetoed += o.Vetoed
	b.WastedSeconds += o.WastedSeconds
	b.SpotVMs += o.SpotVMs
	b.Revocations += o.Revocations
	b.SpotCost += o.SpotCost
	b.ReworkCost += o.ReworkCost
}

// observe tallies one execution.
func (b *Batch) observe(makespan, cost float64, completed bool, budget float64) {
	b.Reps++
	b.Costs = append(b.Costs, cost)
	if completed {
		b.Completed++
		b.Makespans = append(b.Makespans, makespan)
	}
	if budget <= 0 || cost <= budget {
		b.InBudget++
	}
}

// Frac returns n as a fraction of the batch's executions.
func (b Batch) Frac(n int) float64 { return float64(n) / float64(b.Reps) }

// Objective reports how often the executions met each criterion of obj
// (Equation (3)). The joint count pairs Makespans with Costs by
// position, which only a batch whose every execution completed allows.
func (b Batch) Objective(obj sim.Objective) (sim.ObjectiveStats, error) {
	var st sim.ObjectiveStats
	if b.Completed != b.Reps {
		return st, fmt.Errorf("exp: %d of %d executions did not complete: no joint (makespan, cost) samples for the deadline objective", b.Reps-b.Completed, b.Reps)
	}
	for i, mk := range b.Makespans {
		st.Observe(obj, &sim.Result{Makespan: mk, TotalCost: b.Costs[i]})
	}
	return st, nil
}

// check reports a payload that cannot be the tally of reps executions:
// the counts the fractions divide by must agree with the observations.
func (b Batch) check(reps int) error {
	if b.Reps != reps || len(b.Costs) != reps || len(b.Makespans) != b.Completed || b.Completed > reps {
		return fmt.Errorf("reps %d, %d costs, completed %d, %d makespans for %d replications",
			b.Reps, len(b.Costs), b.Completed, len(b.Makespans), reps)
	}
	return nil
}

// faults is the fault process of every execution — the template with
// the platform's revocation hazards superposed — or nil.
func (r Replay) faults() *fault.Spec {
	return market.MergeRevocations(r.Faults, r.Platform, r.FaultSeed)
}

// Injects reports whether executions can lose work: a fault template,
// or a revocation hazard on the platform.
func (r Replay) Injects() bool { return r.faults() != nil }

// Check is everything Run refuses before executing, for callers that
// want the answer before committing resources: a malformed fault
// template, an estimator that cannot evaluate this (CheckEstimator),
// fault injection under datacenter contention (the online executor does
// not model it), fewer than one replication. Errors are *reqerr.Error.
func (r Replay) Check() error {
	if err := r.Faults.Validate(r.Platform.NumCategories()); err != nil {
		return err
	}
	if err := CheckEstimator(r.Estimator, r.Platform, r.Faults != nil); err != nil {
		return err
	}
	if r.Platform.DCBandwidth > 0 && r.Injects() {
		return reqerr.Unusable("faults", "fault injection does not support the datacenter contention mode")
	}
	if r.Reps < 1 {
		return reqerr.Invalid("replications", "must be at least 1, got %d", r.Reps)
	}
	return nil
}

// Run executes the replications and returns their tally. What is being
// replayed picks the back end, never an option: the analytic estimator
// reads replication rep off the closed-form distributions' quantiles at
// (rep + ½)/Reps; where an execution can lose work, or books spot VMs
// that are to be counted, each replication goes through the online
// executor; everything else is scored on one reusable engine, which
// allocates nothing per replication. Where their domains meet they agree
// (FuzzReplayBackendsAgree): zero-fault online ≡ scored bit for bit, the
// analytic grid within rounding of both at σ = 0. Cancellation is polled
// before each execution and returned bare; other failures name theirs.
func (r Replay) Run(ctx context.Context) (Batch, error) {
	if err := r.Check(); err != nil {
		return Batch{}, err
	}
	w, p, s := r.Workflow, r.Platform, r.Schedule
	b := Batch{Makespans: make([]float64, 0, r.Reps), Costs: make([]float64, 0, r.Reps)}
	if r.Estimator == EstimatorAnalytic {
		e, err := est.Compute(w, p, s)
		if err != nil {
			return Batch{}, err
		}
		for rep := 0; rep < r.Reps; rep++ {
			q := (float64(rep) + 0.5) / float64(r.Reps)
			b.observe(e.MakespanQuantile(q), e.CostQuantile(q), true, r.Budget)
		}
		return b, nil
	}

	faults := r.faults()
	var runner *sim.Runner
	if faults == nil && !p.HasSpot() {
		var err error
		if runner, err = sim.NewRunner(w, p, s); err != nil {
			return Batch{}, err
		}
		runner.SetSpan(r.Span)
	}
	for rep := 0; rep < r.Reps; rep++ {
		if err := ctx.Err(); err != nil {
			return Batch{}, err
		}
		stream := r.Weights.Split(uint64(rep))
		if runner != nil {
			mk, cost, err := runner.Score(runner.Sample(stream))
			if err != nil {
				return Batch{}, fmt.Errorf("replication %d: %w", rep, err)
			}
			b.observe(mk, cost, true, r.Budget)
			continue
		}
		var span *obs.Span
		if r.Span != nil {
			span = r.Span.Child("replication")
			span.Set(obs.Int("rep", rep))
		}
		var spec *fault.Spec // nil where nothing injects: spot VMs discounted but never revoked
		if faults != nil {
			seeded := *faults
			seeded.Seed += uint64(rep)
			if r.FaultSeeds != nil {
				seeded.Seed = r.FaultSeeds.Split(uint64(rep)).Uint64()
			}
			spec = &seeded
		}
		rpt, err := online.ExecuteFaulty(w, p, s, sim.SampleWeights(w, stream), spec, r.Budget, span)
		span.End()
		if err != nil {
			return Batch{}, fmt.Errorf("replication %d: %w", rep, err)
		}
		b.observe(rpt.Makespan, rpt.TotalCost, rpt.Completed, r.Budget)
		b.Crashes += rpt.Crashes
		b.BootFailures += rpt.BootFailures
		b.TaskFailures += rpt.TaskFailures
		b.Recoveries += rpt.Recoveries
		b.Vetoed += rpt.RecoveriesVetoed
		b.WastedSeconds += rpt.WastedSeconds
		b.SpotVMs += rpt.SpotVMs
		b.Revocations += rpt.Revocations
		b.SpotCost += rpt.SpotCost
		b.ReworkCost += rpt.SpotReworkCost
	}
	return b, nil
}
