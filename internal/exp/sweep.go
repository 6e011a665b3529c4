package exp

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"budgetwf/internal/est"
	"budgetwf/internal/platform"
	"budgetwf/internal/reqerr"
	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/stats"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// Scenario describes one experimental condition: a workflow family and
// size, the uncertainty level, and the platform.
type Scenario struct {
	Type       wfgen.Type
	N          int
	SigmaRatio float64
	Platform   *platform.Platform
	// SimPlatform, when non-nil, is the platform the *simulator* uses
	// while the planner (and the budget anchors) keep using Platform.
	// The contention ablation exploits this to reproduce the §V-B
	// anomaly: the planner assumes an unbounded datacenter, reality
	// saturates.
	SimPlatform *platform.Platform
	// Instances is how many distinct workflow instances (seeds 0..I-1)
	// to generate per condition; the paper uses 5 (§V-A).
	Instances int
	// Reps is the number of stochastic executions per (instance,
	// budget) cell; the paper uses 25.
	Reps int
	// Workers bounds the goroutines evaluating cells in parallel;
	// 0 means GOMAXPROCS.
	Workers int
	// Seed decorrelates the whole scenario; experiments default to 0.
	Seed uint64
	// Estimator selects how each cell's stochastic outcomes are
	// produced: EstimatorMC (the default) replays Reps Monte Carlo
	// executions per cell; EstimatorAnalytic computes the closed-form
	// makespan/cost distribution once per cell (internal/est) and
	// derives Reps deterministic pseudo-samples from its quantiles, so
	// downstream aggregation — and distributed shard merging — is
	// byte-identical in shape to the MC path while skipping the
	// simulation hot loop entirely.
	Estimator string
}

// The paper's methodology (§V-A), which every zero field of a Scenario,
// FigureConfig, job spec or request resolves to. This is the only place
// the values are written.
const (
	DefaultSigmaRatio   = 0.5 // σ/w̄, the paper's central uncertainty level
	DefaultGridK        = 8   // budget levels per sweep
	DefaultInstances    = 5   // workflow instances per condition
	DefaultReps         = 25  // stochastic executions per cell
	DefaultBudgetFactor = 1.5 // β × CheapCost, where one budget stands for a grid
	DefaultFigureTasks  = 90  // tasks per workflow in Figures 1–4
)

// Estimator values for Scenario.Estimator.
const (
	EstimatorMC       = "mc"
	EstimatorAnalytic = "analytic"
)

// ValidEstimator reports whether the name is a known estimator
// (the empty string defaults to EstimatorMC).
func ValidEstimator(name string) bool {
	switch name {
	case "", EstimatorMC, EstimatorAnalytic:
		return true
	}
	return false
}

// CheckEstimator is the one statement of which estimator may evaluate
// what, asked before anything runs by every entry point that takes an
// estimator name (the daemon's endpoints, job specs, cmd/simulate, the
// sweep harness itself). The name must exist (a scalar-domain error);
// Monte Carlo evaluates everything; the analytic estimator declines
// fault-injected executions — crashes and revocations are events of one
// execution, which moment propagation over a fixed precedence structure
// does not have — and the platforms est.Supports declines (Semantic
// errors: there is no silent fallback to Monte Carlo). A nil p is the
// paper's platform. Errors are *reqerr.Error on field "estimator".
func CheckEstimator(name string, p *platform.Platform, faults bool) error {
	switch {
	case !ValidEstimator(name):
		return reqerr.Invalid("estimator", "must be %q or %q", EstimatorMC, EstimatorAnalytic)
	case name != EstimatorAnalytic:
		return nil
	case faults:
		return reqerr.Unusable("estimator", "fault injection requires the Monte Carlo estimator; use estimator=mc")
	case p == nil:
		return nil
	}
	return reqerr.Under("estimator", est.Supports(p))
}

// Defaults fills zero fields with the paper's methodology values.
func (sc Scenario) Defaults() Scenario {
	if sc.SigmaRatio == 0 {
		sc.SigmaRatio = DefaultSigmaRatio
	}
	if sc.Platform == nil {
		sc.Platform = platform.Default()
	}
	if sc.Instances == 0 {
		sc.Instances = DefaultInstances
	}
	if sc.Reps == 0 {
		sc.Reps = DefaultReps
	}
	if sc.Workers == 0 {
		sc.Workers = runtime.GOMAXPROCS(0)
	}
	if sc.Estimator == "" {
		sc.Estimator = EstimatorMC
	}
	return sc
}

// simPlatform is the platform executions are evaluated on.
func (sc Scenario) simPlatform() *platform.Platform {
	if sc.SimPlatform != nil {
		return sc.SimPlatform
	}
	return sc.Platform
}

// Instance materializes the i-th workflow instance of the scenario.
func (sc Scenario) Instance(i int) (*wf.Workflow, error) {
	w, err := wfgen.Generate(sc.Type, sc.N, sc.Seed*1000+uint64(i))
	if err != nil {
		return nil, err
	}
	return w.WithSigmaRatio(sc.SigmaRatio), nil
}

// Point aggregates one (algorithm, budget-factor) cell across all
// instances and stochastic replications.
type Point struct {
	// Factor is the normalized budget β; the actual budget of every
	// instance is β times that instance's CheapCost anchor.
	Factor float64
	// Budget is the mean actual budget across instances (the x-axis
	// value when plotting in dollars, as the paper does).
	Budget float64
	// Makespan summarizes the executions that completed every task — all
	// of them on a revocation-free platform; on a spot platform a run the
	// budget guard cut short has a horizon, not a makespan, and counts
	// only against SuccessFrac. Cost summarizes every execution, complete
	// or not; NumVMs the planned VM count, one observation per instance.
	Makespan stats.Summary
	Cost     stats.Summary
	NumVMs   stats.Summary
	// ValidFrac is the fraction of executions whose realized cost
	// respected the budget (Figure 3, middle row).
	ValidFrac float64
	// PlanTime summarizes the scheduling CPU time in seconds (one
	// observation per instance).
	PlanTime stats.Summary
	// SuccessFrac is the fraction of executions that completed every
	// task: 1 on revocation-free platforms (plain simulation cannot
	// fail), possibly lower on spot platforms where the budget guard or
	// the retry caps degrade a revoked run to a partial result.
	SuccessFrac float64
	// Spot-market aggregates: mean per-execution counts of spot VMs
	// booked and revocations suffered, and the mean realized rework
	// cost (online.Report.SpotReworkCost). Zero without spot categories.
	SpotVMs     float64
	Revocations float64
	ReworkCost  float64
}

// Series is one algorithm's curve over the budget grid.
type Series struct {
	Algorithm sched.Name
	Points    []Point
}

// SweepResult is the full outcome of RunSweep for one scenario.
type SweepResult struct {
	Scenario Scenario
	// MinCostMakespan / MinCostBudget locate the paper's "min_cost"
	// reference dot (means across instances).
	MinCostMakespan float64
	MinCostBudget   float64
	// BaselineMakespan is the mean budget-blind HEFT makespan.
	BaselineMakespan float64
	Series           []Series
	// Tally is every cell's Batch folded together, counters only (the
	// observations are in the Points): the daemon's process counters add it.
	Tally Batch
}

// instance is one materialized workflow of a scenario with its budget
// anchors.
type instance struct {
	w *wf.Workflow
	a *Anchors
}

// materialize generates the scenario's workflow instances and computes
// their anchors: the deterministic state every kind of sweep starts
// from. sc must already carry its defaults.
func (sc Scenario) materialize() ([]instance, error) {
	insts := make([]instance, sc.Instances)
	for i := range insts {
		w, err := sc.Instance(i)
		if err != nil {
			return nil, err
		}
		a, err := ComputeAnchors(w, sc.Platform)
		if err != nil {
			return nil, err
		}
		insts[i] = instance{w: w, a: a}
	}
	return insts, nil
}

// commonFactors is the budget-factor grid all instances share: the
// per-instance grid that reaches the highest factor.
func commonFactors(insts []instance, gridK int) []float64 {
	var common []float64
	for _, in := range insts {
		if f := in.a.BudgetFactors(gridK); common == nil || f[gridK-1] > common[gridK-1] {
			common = f
		}
	}
	return common
}

// Sweep is a resolved budget sweep: the normalized scenario, the
// algorithms and the budget-grid size. Its (algorithm, instance, budget)
// cells are enumerated algorithm-major, then instance, then budget
// index: a pure function of the counts, never of scheduling, worker
// interleaving or GOMAXPROCS, which is what makes shard decomposition
// deterministic.
type Sweep struct {
	sc    Scenario // after Defaults()
	algs  []sched.Algorithm
	gridK int
	// Set by prep: the workflow instances with their budget anchors and
	// the common budget-factor grid. They are a pure function of the
	// fields above, so a distributed worker recomputing them from the
	// spec arrives at exactly the state the coordinator holds — the
	// foundation of the bit-identical sharding (driver.go).
	insts  []instance
	common []float64
}

// normGridK applies the default budget-grid size.
func normGridK(gridK int) int {
	if gridK <= 0 {
		return DefaultGridK
	}
	return gridK
}

// NewSweep normalizes the scenario and checks its estimator; it
// materializes nothing.
func NewSweep(sc Scenario, algs []sched.Algorithm, gridK int) (*Sweep, error) {
	sc = sc.Defaults()
	if err := CheckEstimator(sc.Estimator, sc.simPlatform(), false); err != nil {
		return nil, err
	}
	return &Sweep{sc: sc, algs: algs, gridK: normGridK(gridK)}, nil
}

// prep returns a copy of s with its instances materialized.
func (s Sweep) prep() (*Sweep, error) {
	insts, err := s.sc.materialize()
	if err != nil {
		return nil, err
	}
	s.insts, s.common = insts, commonFactors(insts, s.gridK)
	return &s, nil
}

// Cells is the number of (algorithm, instance, budget) cells.
func (s *Sweep) Cells() int { return len(s.algs) * s.sc.Instances * s.gridK }

// Reps is the number of replications per cell.
func (s *Sweep) Reps() int { return s.sc.Reps }

// Run evaluates cells [start, end): the worker half of a distributed
// sweep.
func (s *Sweep) Run(ctx context.Context, workers, start, end int) ([]Unit, error) {
	return runRange(ctx, workers, start, end, s.Cells(), s.prep)
}

// Merge reassembles units — arriving in any order, from any mix of
// workers — into the SweepResult RunSweepCtx produces for the same
// scenario. Every unit of the grid must be present exactly once. Plan
// wall-time is the one inherently non-deterministic observable;
// everything else is bit-identical.
func (s *Sweep) Merge(units []Unit) (*SweepResult, error) {
	p, ordered, err := orderAll(units, s, s.prep)
	if err != nil {
		return nil, err
	}
	return p.aggregate(ordered), nil
}

// RunSweep evaluates the given algorithms over a normalized budget
// grid with gridK points, reproducing the paper's methodology: per
// (type, size) it generates Instances workflows, plans once per
// (algorithm, budget), and measures Reps stochastic executions of each
// plan. Cells are evaluated by a bounded worker pool.
func RunSweep(sc Scenario, algs []sched.Algorithm, gridK int) (*SweepResult, error) {
	return RunSweepCtx(context.Background(), sc, algs, gridK)
}

// RunSweepCtx is RunSweep under a context: cancellation is polled
// before each cell (one plan plus Reps simulated executions), so a
// timed-out or abandoned sweep request stops burning the worker pool
// within one cell. It is every unit run and then aggregated.
func RunSweepCtx(ctx context.Context, sc Scenario, algs []sched.Algorithm, gridK int) (*SweepResult, error) {
	s, err := NewSweep(sc, algs, gridK)
	if err != nil {
		return nil, err
	}
	p, units, err := runAll(ctx, s.sc.Workers, s.Cells(), s.prep)
	if err != nil {
		return nil, err
	}
	return p.aggregate(units), nil
}

// cellIndex locates the (algorithm, instance, budget) cell in the
// enumeration order.
func cellIndex(ai, i, b, instances, gridK int) int {
	return (ai*instances+i)*gridK + b
}

// aggregate folds the full grid's units, in enumeration order, into
// per-(algorithm, budget) Points. Cells are addressed by cellIndex, so
// the whole aggregation is O(cells), not a rescan of the units per point
// (TestAggregateCellsLinearInCells).
func (p *Sweep) aggregate(units []Unit) *SweepResult {
	instances := p.sc.Instances
	out := &SweepResult{Scenario: p.sc}
	for _, in := range p.insts {
		out.MinCostMakespan += in.a.CheapMakespan / float64(instances)
		out.MinCostBudget += in.a.CheapCost / float64(instances)
		out.BaselineMakespan += in.a.BaselineMakespan / float64(instances)
	}
	for ai, alg := range p.algs {
		series := Series{Algorithm: alg.Name}
		for b := 0; b < p.gridK; b++ {
			var agg Batch
			var vms, planT []float64
			budgetSum := 0.0
			for i := 0; i < instances; i++ {
				u := &units[cellIndex(ai, i, b, instances, p.gridK)]
				agg.Add(u.Batch)
				vms = append(vms, u.NumVMs)
				planT = append(planT, u.PlanSeconds)
				budgetSum += p.common[b] * p.insts[i].a.CheapCost
			}
			pt := Point{
				Factor:   p.common[b],
				Budget:   budgetSum / float64(instances),
				Makespan: stats.Summarize(agg.Makespans),
				Cost:     stats.Summarize(agg.Costs),
				NumVMs:   stats.Summarize(vms),
				PlanTime: stats.Summarize(planT),

				ValidFrac:   agg.Frac(agg.InBudget),
				SuccessFrac: agg.Frac(agg.Completed),
				SpotVMs:     agg.Frac(agg.SpotVMs),
				Revocations: agg.Frac(agg.Revocations),
				ReworkCost:  agg.ReworkCost / float64(agg.Reps),
			}
			agg.Makespans, agg.Costs = nil, nil
			out.Tally.Add(agg)
			series.Points = append(series.Points, pt)
		}
		out.Series = append(out.Series, series)
	}
	return out
}

// runCell is the sweep kernel: it plans one instance at one budget and
// replays the plan, naming the cell in any error. Each replication's
// weight stream is derived solely from the scenario seed and the
// (instance, budget, algorithm, rep) coordinates — never from which
// worker or process computes it.
func (p *Sweep) runCell(ctx context.Context, ci int) (Unit, error) {
	sc := p.sc
	alg, inst, budgetIx := p.algs[ci/(sc.Instances*p.gridK)], ci/p.gridK%sc.Instances, ci%p.gridK
	fail := func(err error) (Unit, error) {
		return Unit{}, fmt.Errorf("exp: %s instance %d budget %d: %w", alg.Name, inst, budgetIx, err)
	}
	w := p.insts[inst].w
	budget := p.common[budgetIx] * p.insts[inst].a.CheapCost

	start := time.Now()
	s, err := alg.Plan(w, sc.Platform, budget)
	planSeconds := time.Since(start).Seconds()
	if err != nil {
		return fail(err)
	}
	cell := uint64(inst)<<32 | uint64(budgetIx)<<16
	b, err := Replay{
		Workflow: w, Platform: sc.simPlatform(), Schedule: s,
		Budget: budget, Reps: sc.Reps, Estimator: sc.Estimator,
		// One decorrelated stream per cell, stable across worker
		// interleavings: derived from scenario seed, instance, budget
		// index and algorithm name.
		Weights: rng.New(sc.Seed).Split(cell | hashName(string(alg.Name))),
		// On a spot platform the revocation-trace seeds involve neither
		// the discount nor the hazard rate, so a discount×rate grid over
		// the same scenario seed is a paired comparison (common random
		// numbers), mirroring faultsweep.go.
		FaultSeeds: rng.New(sc.Seed).Split(cell | hashName("spot-trace")),
	}.Run(ctx)
	if err != nil {
		return fail(err)
	}
	return Unit{Unit: ci, NumVMs: float64(s.NumVMs()), PlanSeconds: planSeconds, Batch: b}, nil
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h & 0xffff
}
