package exp

import (
	"context"
	"fmt"

	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/stats"
)

// Spot-market robustness/economy sweep: one workflow scenario replayed
// over a grid of market conditions (spot discount × revocation rate),
// always against the same on-demand-only baseline. Weights and
// revocation-trace seeds are common random numbers across the whole
// grid — replication r of instance i sees the same realized task
// weights and the same underlying preemption randomness at every
// (discount, rate) — so the cost/robustness frontier is a paired
// comparison, mirroring faultsweep.go.

// DefaultSpotDiscounts is the spot discount grid swept by default
// (fraction taken off the on-demand per-second rate).
var DefaultSpotDiscounts = []float64{0.5, 0.7}

// DefaultSpotRates is the revocation hazard grid in revocations per
// VM-hour swept by default.
var DefaultSpotRates = []float64{0.05, 0.2, 1}

// SpotScenario describes one spot-market sweep.
type SpotScenario struct {
	Scenario
	// Alg is the base planning algorithm; the sweep plans each market
	// grid point with its "-spot" twin (sched.SpotVariant) and the
	// baseline with the base algorithm itself. The zero value defaults
	// to HEFTBUDG.
	Alg sched.Algorithm
	// BudgetFactor β sets each instance's budget to β × CheapCost
	// (anchored on the on-demand platform, so spot and baseline compete
	// for the same dollars); zero defaults to 1.5.
	BudgetFactor float64
	// Discounts and Rates span the market grid; empty slices default to
	// DefaultSpotDiscounts / DefaultSpotRates.
	Discounts []float64
	Rates     []float64
}

// Normalize resolves defaults and validates the grid. The scenario
// platform must be on-demand only: the sweep itself derives the spot
// twins per grid point (platform.WithSpotTwins).
func (sc SpotScenario) Normalize() (SpotScenario, error) {
	sc.Scenario = sc.Scenario.Defaults()
	if sc.Platform.HasSpot() {
		return sc, fmt.Errorf("exp: spot sweep platform must be on-demand only; the grid derives the spot categories")
	}
	// Revocations are fault injections, whatever the platform.
	if err := CheckEstimator(sc.Estimator, sc.Platform, true); err != nil {
		return sc, err
	}
	sc.Discounts = gridOr(sc.Discounts, DefaultSpotDiscounts)
	sc.Rates = gridOr(sc.Rates, DefaultSpotRates)
	for _, d := range sc.Discounts {
		if !(d >= 0 && d < 1) { // NaN fails too
			return sc, fmt.Errorf("exp: spot discount %g outside [0, 1)", d)
		}
	}
	for _, r := range sc.Rates {
		if !(r >= 0) {
			return sc, fmt.Errorf("exp: revocation rate %g is not a non-negative number", r)
		}
	}
	if sc.BudgetFactor == 0 {
		sc.BudgetFactor = DefaultBudgetFactor
	}
	var err error
	sc.Alg, err = algOrHeftBudg(sc.Alg)
	return sc, err
}

// SpotPoint aggregates one (discount, rate) market condition across
// all instances and replications.
type SpotPoint struct {
	// Discount is the fraction off the on-demand rate; Rate is the
	// revocation hazard λ in revocations per VM-hour.
	Discount float64
	Rate     float64
	// SuccessRate is the fraction of executions that finished every
	// task; WithinBudget the fraction whose realized spend stayed
	// within the instance budget.
	SuccessRate  float64
	WithinBudget float64
	// Makespan summarizes completed executions only; Cost summarizes
	// every execution (spend is real either way).
	Makespan stats.Summary
	Cost     stats.Summary
	// Mean per-execution spot counters (see online.Report).
	SpotVMs     float64
	Revocations float64
	ReworkCost  float64
	// CostSaving is 1 − mean spend / baseline mean spend: the fraction
	// of the on-demand bill the spot market saved (negative when
	// revocation rework ate the discount).
	CostSaving float64
}

// SpotSweepResult is the full outcome of RunSpotSweep.
type SpotSweepResult struct {
	Scenario SpotScenario
	// Budget is the mean instance budget.
	Budget float64
	// Baseline summarizes the on-demand-only executions of the base
	// algorithm under the same budgets and the same realized weights.
	BaselineCost         stats.Summary
	BaselineMakespan     stats.Summary
	BaselineWithinBudget float64
	// Points holds one entry per market condition, discount-major in
	// grid order.
	Points []SpotPoint
}

// SpotSweep is a resolved spot sweep: the normalized scenario and the
// flattened market grid. Its cells are enumerated condition-major, then
// instance.
type SpotSweep struct {
	sc SpotScenario // after Normalize()
	// grid is the (discount, rate) conditions, discount-major.
	grid [][2]float64
	// Set by prep: the instances and the spot-aware twin of the
	// algorithm.
	insts   []instance
	spotAlg sched.Algorithm
}

// NewSpotSweep normalizes the scenario; it materializes nothing.
func NewSpotSweep(sc SpotScenario) (*SpotSweep, error) {
	sc, err := sc.Normalize()
	if err != nil {
		return nil, err
	}
	s := &SpotSweep{sc: sc}
	for _, d := range sc.Discounts {
		for _, r := range sc.Rates {
			s.grid = append(s.grid, [2]float64{d, r})
		}
	}
	return s, nil
}

// prep returns a copy of s with its instances materialized.
func (s SpotSweep) prep() (*SpotSweep, error) {
	insts, err := s.sc.materialize()
	if err != nil {
		return nil, err
	}
	s.insts, s.spotAlg = insts, sched.SpotVariant(s.sc.Alg)
	return &s, nil
}

// Cells is the number of (condition, instance) cells.
func (s *SpotSweep) Cells() int { return len(s.grid) * s.sc.Instances }

// Reps is the number of replications per cell.
func (s *SpotSweep) Reps() int { return s.sc.Reps }

// Run evaluates cells [start, end) of the market grid.
func (s *SpotSweep) Run(ctx context.Context, workers, start, end int) ([]Unit, error) {
	return runRange(ctx, workers, start, end, s.Cells(), s.prep)
}

// Merge reassembles units into the SpotSweepResult RunSpotSweepCtx
// produces for the same scenario. The on-demand baseline is not a cell:
// Merge replays it, so ctx bounds it.
func (s *SpotSweep) Merge(ctx context.Context, units []Unit) (*SpotSweepResult, error) {
	p, ordered, err := orderAll(units, s, s.prep)
	if err != nil {
		return nil, err
	}
	return p.aggregate(ctx, ordered)
}

// budget is the instance's budget: β × CheapCost.
func (p *SpotSweep) budget(i int) float64 { return p.sc.BudgetFactor * p.insts[i].a.CheapCost }

// RunSpotSweep evaluates the market grid: per (discount, rate) it
// derives the spot twins, plans each instance with the spot-aware
// algorithm, and replays Reps revocation-injected executions through
// the online executor with the budget guard set to the instance
// budget; the on-demand baseline runs the base algorithm on the
// unmodified platform with the same weight streams.
func RunSpotSweep(sc SpotScenario) (*SpotSweepResult, error) {
	return RunSpotSweepCtx(context.Background(), sc)
}

// RunSpotSweepCtx is RunSpotSweep under a context: cancellation is
// polled before each (condition, instance) cell.
func RunSpotSweepCtx(ctx context.Context, sc SpotScenario) (*SpotSweepResult, error) {
	s, err := NewSpotSweep(sc)
	if err != nil {
		return nil, err
	}
	p, units, err := runAll(ctx, s.sc.Workers, s.Cells(), s.prep)
	if err != nil {
		return nil, err
	}
	return p.aggregate(ctx, units)
}

// aggregate replays the on-demand reference — the base algorithm on the
// unmodified platform (nothing can revoke), same weight streams as the
// grid — and folds the full grid's units into one point per market
// condition, reading each condition's cells by index in instance order.
func (p *SpotSweep) aggregate(ctx context.Context, units []Unit) (*SpotSweepResult, error) {
	sc := p.sc
	out := &SpotSweepResult{Scenario: sc}
	var agg Batch
	for i, inst := range p.insts {
		budget := p.budget(i)
		out.Budget += budget / float64(sc.Instances)
		s, err := sc.Alg.Plan(inst.w, sc.Platform, budget)
		if err != nil {
			return nil, fmt.Errorf("exp: baseline planning instance %d: %w", i, err)
		}
		b, err := Replay{
			Workflow: inst.w, Platform: sc.Platform, Schedule: s,
			Budget: budget, Reps: sc.Reps, Weights: spotWeightStream(sc.Seed, i),
		}.Run(ctx)
		if err != nil {
			return nil, err
		}
		agg.Add(b)
	}
	out.BaselineCost = stats.Summarize(agg.Costs)
	out.BaselineMakespan = stats.Summarize(agg.Makespans)
	out.BaselineWithinBudget = agg.Frac(agg.InBudget)
	for pi, g := range p.grid {
		var agg Batch
		for _, u := range units[pi*sc.Instances : (pi+1)*sc.Instances] {
			agg.Add(u.Batch)
		}
		pt := SpotPoint{
			Discount:     g[0],
			Rate:         g[1],
			SuccessRate:  agg.Frac(agg.Completed),
			WithinBudget: agg.Frac(agg.InBudget),
			Makespan:     stats.Summarize(agg.Makespans),
			Cost:         stats.Summarize(agg.Costs),
			SpotVMs:      agg.Frac(agg.SpotVMs),
			Revocations:  agg.Frac(agg.Revocations),
			ReworkCost:   agg.ReworkCost / float64(agg.Reps),
		}
		if out.BaselineCost.Mean > 0 {
			pt.CostSaving = 1 - pt.Cost.Mean/out.BaselineCost.Mean
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// runCell is the spot kernel: it plans one instance under one market
// condition and replays the plan, the budget guard set to the instance
// budget. A cell's outcome is the Batch of its replications.
func (p *SpotSweep) runCell(ctx context.Context, ci int) (Unit, error) {
	sc := p.sc
	g, instance := p.grid[ci/sc.Instances], ci%sc.Instances
	fail := func(err error) (Unit, error) {
		return Unit{}, fmt.Errorf("exp: spot condition (d=%g, λ=%g) instance %d: %w", g[0], g[1], instance, err)
	}
	w, budget := p.insts[instance].w, p.budget(instance)
	twins := sc.Platform.WithSpotTwins(g[0], g[1])
	s, err := p.spotAlg.Plan(w, twins, budget)
	if err != nil {
		return fail(err)
	}
	b, err := Replay{
		Workflow: w, Platform: twins, Schedule: s, Budget: budget, Reps: sc.Reps,
		Weights:    spotWeightStream(sc.Seed, instance),
		FaultSeeds: rng.New(sc.Seed).Split(uint64(instance)<<32 | hashName("spot-trace")),
	}.Run(ctx)
	if err != nil {
		return fail(err)
	}
	return Unit{Unit: ci, Batch: b}, nil
}

// spotWeightStream derives the weight stream of one instance: a pure
// function of (scenario seed, instance) — never of the market
// condition — so baseline and every grid point replay identical
// realized weights.
func spotWeightStream(seed uint64, instance int) *rng.RNG {
	return rng.New(seed).Split(uint64(instance)<<32 | hashName("spot-weights"))
}
