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
// and algorithm defaults applied, and the spec template validated —
// what NewFaultSweep resolves, so every process that resolves the same
// wire spec indexes the same unit enumeration (driver.go).
func (sc FaultScenario) Normalize() (FaultScenario, error) {
	sc.Scenario = sc.Scenario.Defaults()
	sc.Rates = NormalizeFaultRates(sc.Rates)
	for _, lam := range sc.Rates {
		if !(lam >= 0) { // NaN fails too
			return sc, fmt.Errorf("exp: crash rate %g is not a non-negative number", lam)
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

// FaultSweep is a resolved fault sweep: the normalized scenario, whose
// (instance, rate) cells are enumerated instance-major, then rate index.
type FaultSweep struct {
	sc FaultScenario // after Normalize()
	// Set by prep: the per-instance plans. Like a Sweep's instances they
	// are a pure function of the scenario, so distributed workers
	// recompute them identically from the wire spec.
	instances  []faultInst
	meanBudget float64
}

// faultInst is one planned instance of a fault sweep.
type faultInst struct {
	w      *wf.Workflow
	s      *plan.Schedule
	budget float64
}

// NewFaultSweep normalizes the scenario; it plans nothing.
func NewFaultSweep(sc FaultScenario) (*FaultSweep, error) {
	sc, err := sc.Normalize()
	if err != nil {
		return nil, err
	}
	return &FaultSweep{sc: sc}, nil
}

// prep returns a copy of f with every instance planned.
func (f FaultSweep) prep() (*FaultSweep, error) {
	sc := f.sc
	insts, err := sc.materialize()
	if err != nil {
		return nil, err
	}
	f.instances = make([]faultInst, sc.Instances)
	for i, in := range insts {
		budget := sc.BudgetFactor * in.a.CheapCost
		if sc.BudgetFactor < 0 {
			budget = 0 // guard lifted
		}
		s, err := sc.Alg.Plan(in.w, sc.Platform, planBudget(budget, in.a.CheapCost))
		if err != nil {
			return nil, fmt.Errorf("exp: planning instance %d: %w", i, err)
		}
		f.instances[i] = faultInst{w: in.w, s: s, budget: budget}
		f.meanBudget += budget / float64(sc.Instances)
	}
	return &f, nil
}

// Cells is the number of (instance, rate) cells.
func (f *FaultSweep) Cells() int { return f.sc.Instances * len(f.sc.Rates) }

// Reps is the number of replications per cell.
func (f *FaultSweep) Reps() int { return f.sc.Reps }

// Run evaluates cells [start, end) of the fault sweep.
func (f *FaultSweep) Run(ctx context.Context, workers, start, end int) ([]Unit, error) {
	return runRange(ctx, workers, start, end, f.Cells(), f.prep)
}

// Merge reassembles units into the FaultSweepResult RunFaultSweepCtx
// produces for the same scenario.
func (f *FaultSweep) Merge(units []Unit) (*FaultSweepResult, error) {
	p, ordered, err := orderAll(units, f, f.prep)
	if err != nil {
		return nil, err
	}
	return p.aggregate(ordered), nil
}

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
	f, err := NewFaultSweep(sc)
	if err != nil {
		return nil, err
	}
	p, units, err := runAll(ctx, f.sc.Workers, f.Cells(), f.prep)
	if err != nil {
		return nil, err
	}
	return p.aggregate(units), nil
}

// aggregate folds the full grid's units into per-rate points. Each
// rate reads its cells by index, in instance order — the order
// observations enter each summary, and the same whether the units came
// from this process or from a merge.
func (p *FaultSweep) aggregate(units []Unit) *FaultSweepResult {
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
func (p *FaultSweep) runCell(ctx context.Context, ci int) (Unit, error) {
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
		return Unit{}, fmt.Errorf("exp: instance %d rate %g: %w", instance, lam, err)
	}
	return Unit{Unit: ci, Batch: b}, nil
}
