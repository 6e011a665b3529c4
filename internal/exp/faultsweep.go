package exp

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"budgetwf/internal/fault"
	"budgetwf/internal/plan"
	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/stats"
	"budgetwf/internal/wf"
)

// DefaultFaultRates is the crash-rate grid (crashes per VM-hour) the
// robustness experiments sweep by default.
var DefaultFaultRates = []float64{0, 0.01, 0.1, 0.5}

// FaultScenario describes a robustness sweep: one (workflow scenario,
// algorithm, budget factor, recovery policy) condition replayed under
// increasing per-VM crash rates. Weights and fault-trace seeds are
// common random numbers across rates — replication r of instance i
// sees the same realized task weights at every λ — so the degradation
// curves are paired comparisons, not independent samples.
type FaultScenario struct {
	Scenario
	// Rates is the λ grid in crashes per VM-hour. Empty defaults to
	// DefaultFaultRates; a zero entry (the no-fault anchor of the
	// degradation ratios) is prepended when absent.
	Rates []float64
	// Alg plans the schedule, once per instance. The zero value
	// defaults to HEFTBUDG.
	Alg sched.Algorithm
	// BudgetFactor β sets each instance's budget to β × CheapCost;
	// zero defaults to 1.5. Negative lifts the budget guard entirely.
	BudgetFactor float64
	// Spec is the fault-spec template. Its CrashRatePerHour and Seed
	// fields are overridden per grid point and replication; boot- and
	// task-failure probabilities, the recovery policy and the retry
	// caps are taken as given.
	Spec fault.Spec
}

// Normalize resolves every defaulted field deterministically: the
// rate grid is copied, sorted and anchored at λ = 0, the budget factor
// and algorithm defaults applied, and the spec template validated. It
// is exported because a distributed worker must normalize the same
// wire spec to exactly the coordinator's scenario before indexing into
// the unit enumeration (driver.go).
func (sc FaultScenario) Normalize() (FaultScenario, error) {
	sc.Scenario = sc.Scenario.Defaults()
	sc.Rates = NormalizeFaultRates(sc.Rates)
	for _, lam := range sc.Rates {
		if lam < 0 {
			return sc, fmt.Errorf("exp: negative crash rate %g", lam)
		}
	}
	if sc.BudgetFactor == 0 {
		sc.BudgetFactor = DefaultBudgetFactor
	}
	var err error
	if sc.Alg, err = algOrHeftBudg(sc.Alg); err != nil {
		return sc, err
	}
	// The template's own rate grid is overridden per point; validate
	// the fields that are taken as given.
	tmpl := sc.Spec
	tmpl.CrashRatePerHour = nil
	if err := tmpl.Validate(sc.Platform.NumCategories()); err != nil {
		return sc, err
	}
	return sc, nil
}

// NormalizeFaultRates is the λ grid a fault sweep runs for the rates it
// was given: a private copy (of DefaultFaultRates when empty), sorted
// ascending and anchored at λ = 0. Job specs normalize with it too, so
// two spellings of one grid are one campaign, with one hash.
func NormalizeFaultRates(rates []float64) []float64 {
	rates = gridOr(rates, DefaultFaultRates)
	if !slices.Contains(rates, 0) {
		rates = append(rates, 0)
	}
	sort.Float64s(rates)
	return rates
}

// gridOr returns a private copy of the grid axis, or of its default
// when the scenario leaves it empty.
func gridOr(axis, def []float64) []float64 {
	if len(axis) == 0 {
		axis = def
	}
	return append([]float64(nil), axis...)
}

// algOrHeftBudg defaults a scenario's zero-value algorithm to HEFTBUDG.
func algOrHeftBudg(alg sched.Algorithm) (sched.Algorithm, error) {
	if alg.Plan != nil {
		return alg, nil
	}
	return sched.ByName(sched.NameHeftBudg)
}

// FaultPoint aggregates one crash rate across all instances and
// replications.
type FaultPoint struct {
	// Rate is λ in crashes per VM-hour.
	Rate float64
	// SuccessRate is the fraction of executions that finished every
	// task; the complement degraded to partial results under the
	// budget guard or the retry caps.
	SuccessRate float64
	// WithinBudget is the fraction of executions whose realized spend
	// stayed within the instance budget (1 when the guard is lifted).
	WithinBudget float64
	// Makespan summarizes completed executions only — a partial run's
	// horizon is not a makespan. Cost summarizes every execution:
	// spend is real whether or not the workflow finished.
	Makespan stats.Summary
	Cost     stats.Summary
	// Mean per-execution fault and recovery counters.
	Crashes          float64
	BootFailures     float64
	TaskFailures     float64
	Recoveries       float64
	RecoveriesVetoed float64
	WastedSeconds    float64
	// MakespanFactor and CostFactor are mean degradations relative to
	// the λ = 0 point: mean makespan (over completed runs) and mean
	// spend divided by the baseline's. 1 at the anchor; 0 when the
	// point has no completed runs to compare.
	MakespanFactor float64
	CostFactor     float64
}

// FaultSweepResult is the full outcome of RunFaultSweep.
type FaultSweepResult struct {
	Scenario FaultScenario
	// Budget is the mean actual budget across instances (0 when the
	// guard is lifted).
	Budget float64
	// Points holds one entry per rate, in ascending λ; Points[0] is
	// the λ = 0 anchor.
	Points []FaultPoint
}

// FaultUnitResult is the outcome of one fault-sweep unit — the tally of
// every replication of one (instance, rate) cell: what the fault kernel
// returns, what the aggregator folds, and the shard wire format.
type FaultUnitResult struct {
	Unit int `json:"unit"`
	Batch
}

func (u FaultUnitResult) cell() int { return u.Unit }

// faultInst is one planned instance of a fault sweep.
type faultInst struct {
	w      *wf.Workflow
	s      *plan.Schedule
	budget float64
}

// faultPrep is the deterministic per-scenario state of a fault sweep:
// the normalized scenario and the per-instance plans. Like sweepPrep,
// it is a pure function of the FaultScenario, so distributed workers
// recompute it identically from the wire spec.
type faultPrep struct {
	sc         FaultScenario // after Normalize()
	instances  []faultInst
	meanBudget float64
}

// prepFaultSweep normalizes the scenario and plans every instance.
func prepFaultSweep(sc FaultScenario) (*faultPrep, error) {
	sc, err := sc.Normalize()
	if err != nil {
		return nil, err
	}
	insts, err := sc.materialize()
	if err != nil {
		return nil, err
	}
	p := &faultPrep{sc: sc, instances: make([]faultInst, sc.Instances)}
	for i, in := range insts {
		budget := sc.BudgetFactor * in.a.CheapCost
		if sc.BudgetFactor < 0 {
			budget = 0 // guard lifted
		}
		s, err := sc.Alg.Plan(in.w, sc.Platform, planBudget(budget, in.a.CheapCost))
		if err != nil {
			return nil, fmt.Errorf("exp: planning instance %d: %w", i, err)
		}
		p.instances[i] = faultInst{w: in.w, s: s, budget: budget}
		p.meanBudget += budget / float64(sc.Instances)
	}
	return p, nil
}

// FaultCells is the number of (instance, rate) cells — and therefore of
// units — in the fault sweep's grid, normalized exactly as
// RunFaultSweepCtx does. Cells are enumerated instance-major, then rate
// index.
func FaultCells(sc FaultScenario) (int, error) {
	n, err := sc.Normalize()
	if err != nil {
		return 0, err
	}
	return n.cells(), nil
}

// cells is the grid size of a normalized scenario.
func (sc FaultScenario) cells() int { return sc.Instances * len(sc.Rates) }

// RunFaultSweep evaluates the scenario's schedule under every crash
// rate of the grid: per instance it plans once, then replays Reps
// fault-injected executions per rate through the online executor with
// the budget guard set to the instance budget. Budget-exhausted runs
// degrade to partial results and lower SuccessRate — they are never
// errors.
func RunFaultSweep(sc FaultScenario) (*FaultSweepResult, error) {
	return RunFaultSweepCtx(context.Background(), sc)
}

// RunFaultSweepCtx is RunFaultSweep under a context: cancellation is
// polled before each (instance, rate) cell.
func RunFaultSweepCtx(ctx context.Context, sc FaultScenario) (*FaultSweepResult, error) {
	p, err := prepFaultSweep(sc)
	if err != nil {
		return nil, err
	}
	units, err := runCells(ctx, p.sc.Workers, 0, p.sc.cells(), p.runCell)
	if err != nil {
		return nil, err
	}
	return p.aggregate(units), nil
}

// RunFaultSweepUnitsCtx evaluates units [start, end) of the fault
// sweep's enumeration and returns their outcomes ordered by unit
// index.
func RunFaultSweepUnitsCtx(ctx context.Context, sc FaultScenario, start, end int) ([]FaultUnitResult, error) {
	p, err := prepFaultSweep(sc)
	if err != nil {
		return nil, err
	}
	if err := checkRange(start, end, p.sc.cells()); err != nil {
		return nil, err
	}
	return runCells(ctx, p.sc.Workers, start, end, p.runCell)
}

// MergeFaultSweepUnits reassembles fault-sweep unit outcomes into the
// FaultSweepResult the single-process RunFaultSweepCtx produces for
// the same scenario.
func MergeFaultSweepUnits(sc FaultScenario, units []FaultUnitResult) (*FaultSweepResult, error) {
	p, err := prepFaultSweep(sc)
	if err != nil {
		return nil, err
	}
	ordered, err := OrderUnits(units, 0, p.sc.cells(), p.sc.Reps)
	if err != nil {
		return nil, err
	}
	return p.aggregate(ordered), nil
}

// aggregate folds the full grid's units into per-rate points. Each
// rate reads its cells by index, in instance order — the order
// observations enter each summary, and the same whether the units came
// from this process or from a merge.
func (p *faultPrep) aggregate(units []FaultUnitResult) *FaultSweepResult {
	sc := p.sc
	out := &FaultSweepResult{Scenario: sc, Budget: p.meanBudget}
	for ri, lam := range sc.Rates {
		var agg Batch
		for i := 0; i < sc.Instances; i++ {
			agg.Add(units[i*len(sc.Rates)+ri].Batch)
		}
		out.Points = append(out.Points, FaultPoint{
			Rate:             lam,
			SuccessRate:      agg.Frac(agg.Completed),
			WithinBudget:     agg.Frac(agg.InBudget),
			Makespan:         stats.Summarize(agg.Makespans),
			Cost:             stats.Summarize(agg.Costs),
			Crashes:          agg.Frac(agg.Crashes),
			BootFailures:     agg.Frac(agg.BootFailures),
			TaskFailures:     agg.Frac(agg.TaskFailures),
			Recoveries:       agg.Frac(agg.Recoveries),
			RecoveriesVetoed: agg.Frac(agg.Vetoed),
			WastedSeconds:    agg.WastedSeconds / float64(agg.Reps),
		})
	}
	base := out.Points[0]
	for i := range out.Points {
		out.Points[i].MakespanFactor = stats.Ratio(out.Points[i].Makespan.Mean, base.Makespan.Mean)
		out.Points[i].CostFactor = stats.Ratio(out.Points[i].Cost.Mean, base.Cost.Mean)
	}
	return out
}

// planBudget is the budget handed to the planner: when the guard is
// lifted (budget 0) the planner still needs a finite budget to shape
// the schedule, so it gets the cheap-cost anchor scaled by the default
// factor.
func planBudget(budget, cheapCost float64) float64 {
	if budget > 0 {
		return budget
	}
	return DefaultBudgetFactor * cheapCost
}

// runCell is the fault kernel: it replays every replication of one
// instance at one crash rate. Weight streams and fault seeds are
// derived without the rate, so the same replication index draws the
// same weights and the same underlying fault randomness at every λ
// (common random numbers) — and, because each replication's streams
// are split by index from a stream fixed per (instance), a cell
// computed in isolation is bit-identical to the same cell inside a
// full run (the sharding guarantee).
func (p *faultPrep) runCell(ctx context.Context, ci int) (FaultUnitResult, error) {
	sc := p.sc
	instance, lam := ci/len(sc.Rates), sc.Rates[ci%len(sc.Rates)]
	inst := p.instances[instance]
	spec := sc.Spec
	spec.CrashRatePerHour = []float64{lam} // broadcast over categories
	b, err := Replay{
		Workflow: inst.w, Platform: sc.Platform, Schedule: inst.s,
		Budget: inst.budget, Reps: sc.Reps, Faults: &spec,
		Weights:    rng.New(sc.Seed).Split(uint64(instance)<<32 | hashName("fault-weights")),
		FaultSeeds: rng.New(sc.Seed).Split(uint64(instance)<<32 | hashName("fault-trace")),
	}.Run(ctx)
	if err != nil {
		return FaultUnitResult{}, fmt.Errorf("exp: instance %d rate %g: %w", instance, lam, err)
	}
	return FaultUnitResult{Unit: ci, Batch: b}, nil
}
