package exp

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"budgetwf/internal/est"
	"budgetwf/internal/market"
	"budgetwf/internal/online"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/reqerr"
	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/sim"
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
	// Makespan, Cost and NumVMs summarize the realized executions.
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
}

// SweepUnitResult is the outcome of one sweep unit — one (algorithm,
// instance, budget) cell: the raw per-replication observations plus the
// per-cell plan facts. It is what the sweep kernel returns, what the
// aggregator folds, and the shard wire format (JSON round-trips float64
// exactly, so transport cannot perturb the merge).
type SweepUnitResult struct {
	Unit        int       `json:"unit"`
	Makespans   []float64 `json:"makespans"`
	Costs       []float64 `json:"costs"`
	NumVMs      float64   `json:"numVMs"`
	Valid       int       `json:"valid"`
	PlanSeconds float64   `json:"planSeconds"`
	// Completed counts executions that finished every task (== the rep
	// count except on spot platforms); the spot counters sum the
	// per-execution revocation outcome over the cell's replications on
	// market platforms, omitted from revocation-free payloads.
	Completed   int     `json:"completed,omitempty"`
	SpotVMs     int     `json:"spotVMs,omitempty"`
	Revocations int     `json:"revocations,omitempty"`
	ReworkCost  float64 `json:"reworkCost,omitempty"`
}

func (u SweepUnitResult) cell() int { return u.Unit }

// record adds one replication's outcome.
func (u *SweepUnitResult) record(makespan, cost, budget float64, completed bool) {
	u.Makespans = append(u.Makespans, makespan)
	u.Costs = append(u.Costs, cost)
	if cost <= budget {
		u.Valid++
	}
	if completed {
		u.Completed++
	}
}

// check: every replication of a sweep cell, completed or not, records a
// makespan and a cost.
func (u SweepUnitResult) check(reps int) error {
	if len(u.Makespans) != reps || len(u.Costs) != reps {
		return fmt.Errorf("%d makespans and %d costs for %d replications", len(u.Makespans), len(u.Costs), reps)
	}
	return nil
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

// sweepPrep is the deterministic per-scenario state every cell
// evaluation needs: the materialized workflow instances with their
// budget anchors and the common budget-factor grid. Because it is a
// pure function of (Scenario, algorithms, gridK), a distributed worker
// recomputing it from the spec arrives at exactly the state the
// coordinator holds — the foundation of the bit-identical sharding
// (driver.go).
type sweepPrep struct {
	sc     Scenario // after Defaults()
	algs   []sched.Algorithm
	gridK  int
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

// prepSweep normalizes the scenario and materializes instances,
// anchors and the factor grid.
func prepSweep(sc Scenario, algs []sched.Algorithm, gridK int) (*sweepPrep, error) {
	sc = sc.Defaults()
	if err := CheckEstimator(sc.Estimator, sc.simPlatform(), false); err != nil {
		return nil, err
	}
	gridK = normGridK(gridK)
	insts, err := sc.materialize()
	if err != nil {
		return nil, err
	}
	return &sweepPrep{sc: sc, algs: algs, gridK: gridK, insts: insts, common: commonFactors(insts, gridK)}, nil
}

// SweepCells is the number of (algorithm, instance, budget) cells —
// and therefore of units — in the sweep's grid, normalized exactly as
// RunSweepCtx does. Cells are enumerated algorithm-major, then
// instance, then budget index: a pure function of the counts, never of
// scheduling, worker interleaving or GOMAXPROCS, which is what makes
// shard decomposition deterministic.
func SweepCells(sc Scenario, numAlgs, gridK int) int {
	return numAlgs * sc.Defaults().Instances * normGridK(gridK)
}

func (p *sweepPrep) cells() int { return SweepCells(p.sc, len(p.algs), p.gridK) }

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
	p, err := prepSweep(sc, algs, gridK)
	if err != nil {
		return nil, err
	}
	units, err := p.runUnits(ctx, 0, p.cells())
	if err != nil {
		return nil, err
	}
	return p.aggregate(units), nil
}

// RunSweepUnitsCtx evaluates units [start, end) of the scenario's
// enumeration on a bounded local pool (sc.Workers goroutines) and
// returns their outcomes ordered by unit index: the worker half of a
// distributed sweep.
func RunSweepUnitsCtx(ctx context.Context, sc Scenario, algs []sched.Algorithm, gridK, start, end int) ([]SweepUnitResult, error) {
	p, err := prepSweep(sc, algs, gridK)
	if err != nil {
		return nil, err
	}
	return p.runUnits(ctx, start, end)
}

// MergeSweepUnits reassembles unit outcomes — arriving in any order,
// from any mix of workers — into the SweepResult the single-process
// RunSweepCtx produces for the same scenario. Every unit of the grid
// must be present exactly once. Plan wall-time is the one inherently
// non-deterministic observable; everything else is bit-identical.
func MergeSweepUnits(sc Scenario, algs []sched.Algorithm, gridK int, units []SweepUnitResult) (*SweepResult, error) {
	p, err := prepSweep(sc, algs, gridK)
	if err != nil {
		return nil, err
	}
	ordered, err := OrderUnits(units, 0, p.cells(), p.sc.Reps)
	if err != nil {
		return nil, err
	}
	return p.aggregate(ordered), nil
}

// runUnits drives the sweep kernel over cells [start, end), naming the
// cell in any error.
func (p *sweepPrep) runUnits(ctx context.Context, start, end int) ([]SweepUnitResult, error) {
	if err := checkRange(start, end, p.cells()); err != nil {
		return nil, err
	}
	return runCells(ctx, p.sc.Workers, start, end, func(ci int) (SweepUnitResult, error) {
		alg, i, b := p.algs[ci/(p.sc.Instances*p.gridK)], ci/p.gridK%p.sc.Instances, ci%p.gridK
		u, err := p.runCell(alg, i, b)
		if err != nil {
			return u, fmt.Errorf("exp: %s instance %d budget %d: %w", alg.Name, i, b, err)
		}
		u.Unit = ci
		return u, nil
	})
}

// cellIndex locates the (algorithm, instance, budget) cell in the
// enumeration order.
func cellIndex(ai, i, b, instances, gridK int) int {
	return (ai*instances+i)*gridK + b
}

// aggregate folds the full grid's units, in enumeration order, into
// per-(algorithm, budget) Points. Cells are addressed by cellIndex, so
// the whole aggregation is O(cells); a previous version rescanned the
// full results slice for every (algorithm × instance × budget) triple,
// which made large sweeps quadratic in the number of cells
// (TestAggregateCellsLinearInCells pins the fix).
func (p *sweepPrep) aggregate(units []SweepUnitResult) *SweepResult {
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
			var mk, cost, vms, planT []float64
			valid, total, completed := 0, 0, 0
			spotVMs, revocations := 0, 0
			rework := 0.0
			budgetSum := 0.0
			for i := 0; i < instances; i++ {
				u := &units[cellIndex(ai, i, b, instances, p.gridK)]
				mk = append(mk, u.Makespans...)
				cost = append(cost, u.Costs...)
				vms = append(vms, u.NumVMs)
				planT = append(planT, u.PlanSeconds)
				valid += u.Valid
				completed += u.Completed
				spotVMs += u.SpotVMs
				revocations += u.Revocations
				rework += u.ReworkCost
				total += len(u.Makespans)
				budgetSum += p.common[b] * p.insts[i].a.CheapCost
			}
			pt := Point{
				Factor:   p.common[b],
				Budget:   budgetSum / float64(instances),
				Makespan: stats.Summarize(mk),
				Cost:     stats.Summarize(cost),
				NumVMs:   stats.Summarize(vms),
				PlanTime: stats.Summarize(planT),
			}
			if total > 0 {
				pt.ValidFrac = float64(valid) / float64(total)
				pt.SuccessFrac = float64(completed) / float64(total)
				pt.SpotVMs = float64(spotVMs) / float64(total)
				pt.Revocations = float64(revocations) / float64(total)
				pt.ReworkCost = rework / float64(total)
			}
			series.Points = append(series.Points, pt)
		}
		out.Series = append(out.Series, series)
	}
	return out
}

// replaySpot executes one replication on a platform with spot
// categories through the online executor — plain simulation cannot
// revoke a VM. seed drives the revocation trace; categories with zero
// hazard are discounted but never revoked, which needs no fault spec.
func replaySpot(w *wf.Workflow, p *platform.Platform, s *plan.Schedule, weights []float64, seed uint64, budget float64) (*online.Report, error) {
	if spec := market.RevocationSpec(p, seed); spec != nil {
		return online.ExecuteFaulty(w, p, s, weights, spec, budget)
	}
	return online.Execute(w, p, s, weights, online.Policy{Budget: budget})
}

// runCell is the sweep kernel: it plans one instance at one budget and
// replays every replication with stochastic weights. Each replication's
// weight stream is derived solely from the scenario seed and the
// (instance, budget, algorithm, rep) coordinates — never from which
// worker or process computes it.
func (p *sweepPrep) runCell(alg sched.Algorithm, inst, budgetIx int) (SweepUnitResult, error) {
	sc := p.sc
	var res SweepUnitResult
	w := p.insts[inst].w
	budget := p.common[budgetIx] * p.insts[inst].a.CheapCost

	start := time.Now()
	s, err := alg.Plan(w, sc.Platform, budget)
	res.PlanSeconds = time.Since(start).Seconds()
	if err != nil {
		return res, err
	}
	res.NumVMs = float64(s.NumVMs())
	res.Makespans = make([]float64, 0, sc.Reps)
	res.Costs = make([]float64, 0, sc.Reps)
	simP := sc.simPlatform()

	if sc.Estimator == EstimatorAnalytic {
		// One closed-form propagation per cell instead of Reps simulated
		// executions. Pseudo-samples are the estimate's quantiles at the
		// rep midpoints (rep + ½)/Reps — a deterministic function of the
		// cell coordinates alone, the same contract the MC path gets from
		// its split RNG streams.
		e, err := est.Compute(w, simP, s)
		if err != nil {
			return res, err
		}
		for rep := 0; rep < sc.Reps; rep++ {
			q := (float64(rep) + 0.5) / float64(sc.Reps)
			res.record(e.MakespanQuantile(q), e.CostQuantile(q), budget, true)
		}
		return res, nil
	}

	// One decorrelated stream per cell, stable across worker
	// interleavings: derived from scenario seed, instance, budget
	// index and algorithm name.
	stream := rng.New(sc.Seed).Split(uint64(inst)<<32 | uint64(budgetIx)<<16 | hashName(string(alg.Name)))

	if simP.HasSpot() {
		// Weights reuse the cell stream's derivation, and revocation-trace
		// seeds come from a stream that involves neither the discount nor
		// the hazard rate, so a discount×rate grid over the same scenario
		// seed is a paired comparison (common random numbers), mirroring
		// faultsweep.go.
		seedStream := rng.New(sc.Seed).Split(uint64(inst)<<32 | uint64(budgetIx)<<16 | hashName("spot-trace"))
		for rep := 0; rep < sc.Reps; rep++ {
			weights := sim.SampleWeights(w, stream.Split(uint64(rep)))
			r, err := replaySpot(w, simP, s, weights, seedStream.Split(uint64(rep)).Uint64(), budget)
			if err != nil {
				return res, err
			}
			res.record(r.Makespan, r.TotalCost, budget, r.Completed)
			res.SpotVMs += r.SpotVMs
			res.Revocations += r.Revocations
			res.ReworkCost += r.SpotReworkCost
		}
		return res, nil
	}

	runner, err := sim.NewRunner(w, simP, s)
	if err != nil {
		return res, err
	}
	for rep := 0; rep < sc.Reps; rep++ {
		mk, cost, err := runner.Score(runner.Sample(stream.Split(uint64(rep))))
		if err != nil {
			return res, err
		}
		res.record(mk, cost, budget, true)
	}
	return res, nil
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h & 0xffff
}
