package exp

import (
	"context"
	"fmt"
	"sync"

	"budgetwf/internal/market"
	"budgetwf/internal/online"
	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/sim"
	"budgetwf/internal/stats"
	"budgetwf/internal/wf"
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
	if sc.Estimator != EstimatorMC {
		return sc, fmt.Errorf("exp: spot sweep requires estimator=mc (revocations are Monte Carlo events)")
	}
	if len(sc.Discounts) == 0 {
		sc.Discounts = append([]float64(nil), DefaultSpotDiscounts...)
	} else {
		sc.Discounts = append([]float64(nil), sc.Discounts...)
	}
	if len(sc.Rates) == 0 {
		sc.Rates = append([]float64(nil), DefaultSpotRates...)
	} else {
		sc.Rates = append([]float64(nil), sc.Rates...)
	}
	for _, d := range sc.Discounts {
		if d < 0 || d >= 1 {
			return sc, fmt.Errorf("exp: spot discount %g outside [0, 1)", d)
		}
	}
	for _, r := range sc.Rates {
		if r < 0 {
			return sc, fmt.Errorf("exp: negative revocation rate %g", r)
		}
	}
	if sc.BudgetFactor == 0 {
		sc.BudgetFactor = 1.5
	}
	if sc.Alg.Plan == nil {
		alg, err := sched.ByName(sched.NameHeftBudg)
		if err != nil {
			return sc, err
		}
		sc.Alg = alg
	}
	return sc, nil
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

// spotInst is one instance's shared state: the workflow and its budget.
type spotInst struct {
	w      *wf.Workflow
	budget float64
}

// spotCell is one unit of parallel work: every replication of one
// instance under one market condition.
type spotCell struct {
	point    int // index into the flattened (discount, rate) grid
	instance int
}

type spotCellResult struct {
	makespans   []float64 // completed runs only
	costs       []float64 // all runs
	completed   int
	inBudget    int
	reps        int
	spotVMs     int
	revocations int
	rework      float64
	err         error
}

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
func RunSpotSweepCtx(ctx context.Context, scIn SpotScenario) (*SpotSweepResult, error) {
	sc, err := scIn.Normalize()
	if err != nil {
		return nil, err
	}
	insts := make([]spotInst, sc.Instances)
	out := &SpotSweepResult{Scenario: sc}
	for i := range insts {
		w, err := sc.Instance(i)
		if err != nil {
			return nil, err
		}
		a, err := ComputeAnchors(w, sc.Platform)
		if err != nil {
			return nil, err
		}
		insts[i] = spotInst{w: w, budget: sc.BudgetFactor * a.CheapCost}
		out.Budget += insts[i].budget / float64(sc.Instances)
	}

	// Baseline: the base algorithm on the on-demand platform, plain
	// simulation (nothing can revoke), same weight streams as the grid.
	var baseCosts, baseMks []float64
	baseInBudget, baseReps := 0, 0
	for i, inst := range insts {
		s, err := sc.Alg.Plan(inst.w, sc.Platform, inst.budget)
		if err != nil {
			return nil, fmt.Errorf("exp: baseline planning instance %d: %w", i, err)
		}
		runner, err := sim.NewRunner(inst.w, sc.Platform, s)
		if err != nil {
			return nil, err
		}
		weightStream := spotWeightStream(sc.Seed, i)
		for rep := 0; rep < sc.Reps; rep++ {
			mk, cost, err := runner.Score(runner.Sample(weightStream.Split(uint64(rep))))
			if err != nil {
				return nil, err
			}
			baseCosts = append(baseCosts, cost)
			baseMks = append(baseMks, mk)
			baseReps++
			if cost <= inst.budget {
				baseInBudget++
			}
		}
	}
	out.BaselineCost = stats.Summarize(baseCosts)
	out.BaselineMakespan = stats.Summarize(baseMks)
	out.BaselineWithinBudget = float64(baseInBudget) / float64(baseReps)

	type cond struct{ discount, rate float64 }
	var grid []cond
	for _, d := range sc.Discounts {
		for _, r := range sc.Rates {
			grid = append(grid, cond{d, r})
		}
	}
	spotAlg := sched.SpotVariant(sc.Alg)
	cells := make([]spotCell, 0, len(grid)*sc.Instances)
	for pi := range grid {
		for i := 0; i < sc.Instances; i++ {
			cells = append(cells, spotCell{point: pi, instance: i})
		}
	}
	results := make([]spotCellResult, len(cells))
	var wg sync.WaitGroup
	work := make(chan int)
	for wkr := 0; wkr < sc.Workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range work {
				if err := ctx.Err(); err != nil {
					results[ci] = spotCellResult{err: err}
					continue
				}
				c := cells[ci]
				g := grid[c.point]
				results[ci] = runSpotCell(sc, insts[c.instance], c.instance, spotAlg, g.discount, g.rate)
			}
		}()
	}
	for ci := range cells {
		work <- ci
	}
	close(work)
	wg.Wait()

	for pi, g := range grid {
		var agg spotCellResult
		for ci, c := range cells {
			r := results[ci]
			if r.err != nil {
				return nil, fmt.Errorf("exp: spot condition (d=%g, λ=%g) instance %d: %w", g.discount, g.rate, c.instance, r.err)
			}
			if c.point != pi {
				continue
			}
			agg.makespans = append(agg.makespans, r.makespans...)
			agg.costs = append(agg.costs, r.costs...)
			agg.completed += r.completed
			agg.inBudget += r.inBudget
			agg.reps += r.reps
			agg.spotVMs += r.spotVMs
			agg.revocations += r.revocations
			agg.rework += r.rework
		}
		n := float64(agg.reps)
		pt := SpotPoint{
			Discount:     g.discount,
			Rate:         g.rate,
			SuccessRate:  float64(agg.completed) / n,
			WithinBudget: float64(agg.inBudget) / n,
			Makespan:     stats.Summarize(agg.makespans),
			Cost:         stats.Summarize(agg.costs),
			SpotVMs:      float64(agg.spotVMs) / n,
			Revocations:  float64(agg.revocations) / n,
			ReworkCost:   agg.rework / n,
		}
		if out.BaselineCost.Mean > 0 {
			pt.CostSaving = 1 - pt.Cost.Mean/out.BaselineCost.Mean
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// runSpotCell plans one instance under one market condition and
// replays every replication.
func runSpotCell(sc SpotScenario, inst spotInst, instance int, spotAlg sched.Algorithm, discount, rate float64) spotCellResult {
	var res spotCellResult
	p := sc.Platform.WithSpotTwins(discount, rate)
	s, err := spotAlg.Plan(inst.w, p, inst.budget)
	if err != nil {
		res.err = err
		return res
	}
	weightStream := spotWeightStream(sc.Seed, instance)
	seedStream := rng.New(sc.Seed).Split(uint64(instance)<<32 | hashName("spot-trace"))
	for rep := 0; rep < sc.Reps; rep++ {
		weights := sim.SampleWeights(inst.w, weightStream.Split(uint64(rep)))
		seed := seedStream.Split(uint64(rep)).Uint64()
		var r *online.Report
		var err error
		if spec := market.RevocationSpec(p, seed); spec != nil {
			r, err = online.ExecuteFaulty(inst.w, p, s, weights, spec, inst.budget)
		} else {
			r, err = online.Execute(inst.w, p, s, weights, online.Policy{Budget: inst.budget})
		}
		if err != nil {
			res.err = err
			return res
		}
		res.reps++
		res.costs = append(res.costs, r.TotalCost)
		if r.Completed {
			res.completed++
			res.makespans = append(res.makespans, r.Makespan)
		}
		if r.TotalCost <= inst.budget {
			res.inBudget++
		}
		res.spotVMs += r.SpotVMs
		res.revocations += r.Revocations
		res.rework += r.SpotReworkCost
	}
	return res
}

// spotWeightStream derives the weight stream of one instance: a pure
// function of (scenario seed, instance) — never of the market
// condition — so baseline and every grid point replay identical
// realized weights.
func spotWeightStream(seed uint64, instance int) *rng.RNG {
	return rng.New(seed).Split(uint64(instance)<<32 | hashName("spot-weights"))
}
