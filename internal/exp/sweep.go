package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"budgetwf/internal/est"
	"budgetwf/internal/market"
	"budgetwf/internal/online"
	"budgetwf/internal/platform"
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

// Defaults fills zero fields with the paper's methodology values.
func (sc Scenario) Defaults() Scenario {
	if sc.SigmaRatio == 0 {
		sc.SigmaRatio = 0.5
	}
	if sc.Platform == nil {
		sc.Platform = platform.Default()
	}
	if sc.Instances == 0 {
		sc.Instances = 5
	}
	if sc.Reps == 0 {
		sc.Reps = 25
	}
	if sc.Workers == 0 {
		sc.Workers = runtime.GOMAXPROCS(0)
	}
	if sc.Estimator == "" {
		sc.Estimator = EstimatorMC
	}
	return sc
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

// cell is one unit of parallel work: schedule one instance at one
// budget with one algorithm, then run all stochastic replications.
type cell struct {
	alg      sched.Algorithm
	algIdx   int
	instance int
	budgetIx int
}

type cellResult struct {
	cell
	makespans []float64
	costs     []float64
	numVMs    float64
	valid     int
	planTime  float64
	// completed counts executions that finished every task (== the rep
	// count except on spot platforms); the spot counters sum the
	// per-execution revocation outcome over the cell's replications.
	completed   int
	spotVMs     int
	revocations int
	reworkCost  float64
	err         error
}

// sweepPrep is the deterministic per-scenario state every cell
// evaluation needs: the materialized workflow instances, their budget
// anchors and the common budget-factor grid. Because it is a pure
// function of (Scenario, gridK), a distributed worker recomputing it
// from the spec arrives at exactly the state the coordinator holds —
// the foundation of the bit-identical sharding in shard.go.
type sweepPrep struct {
	sc        Scenario // after Defaults()
	gridK     int
	instances []*wf.Workflow
	anchors   []*Anchors
	common    []float64
	minCostMk float64
	minCostB  float64
	baseMk    float64
}

// prepSweep normalizes the scenario and materializes instances,
// anchors and the factor grid.
func prepSweep(sc Scenario, gridK int) (*sweepPrep, error) {
	sc = sc.Defaults()
	if !ValidEstimator(sc.Estimator) {
		return nil, fmt.Errorf("exp: unknown estimator %q (want %q or %q)", sc.Estimator, EstimatorMC, EstimatorAnalytic)
	}
	if gridK <= 0 {
		gridK = 8
	}
	p := &sweepPrep{
		sc:        sc,
		gridK:     gridK,
		instances: make([]*wf.Workflow, sc.Instances),
		anchors:   make([]*Anchors, sc.Instances),
	}
	factorGrid := make([][]float64, sc.Instances)
	for i := range p.instances {
		w, err := sc.Instance(i)
		if err != nil {
			return nil, err
		}
		a, err := ComputeAnchors(w, sc.Platform)
		if err != nil {
			return nil, err
		}
		p.instances[i] = w
		p.anchors[i] = a
		factorGrid[i] = a.BudgetFactors(gridK)
		if p.common == nil || factorGrid[i][gridK-1] > p.common[gridK-1] {
			p.common = factorGrid[i]
		}
		p.minCostMk += a.CheapMakespan / float64(sc.Instances)
		p.minCostB += a.CheapCost / float64(sc.Instances)
		p.baseMk += a.BaselineMakespan / float64(sc.Instances)
	}
	return p, nil
}

// cells enumerates the full cell space in the canonical order
// (algorithm-major, then instance, then budget index). The order is a
// pure function of the counts — never of scheduling, worker
// interleaving or GOMAXPROCS — which is what makes shard
// decomposition deterministic.
func (p *sweepPrep) cells(algs []sched.Algorithm) []cell {
	out := make([]cell, 0, len(algs)*p.sc.Instances*p.gridK)
	for ai := range algs {
		for i := 0; i < p.sc.Instances; i++ {
			for b := 0; b < p.gridK; b++ {
				out = append(out, cell{alg: algs[ai], algIdx: ai, instance: i, budgetIx: b})
			}
		}
	}
	return out
}

// result assembles the SweepResult envelope around aggregated series.
func (p *sweepPrep) result() *SweepResult {
	return &SweepResult{
		Scenario:         p.sc,
		MinCostMakespan:  p.minCostMk,
		MinCostBudget:    p.minCostB,
		BaselineMakespan: p.baseMk,
	}
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
// within one cell. The first context error aborts the whole sweep.
func RunSweepCtx(ctx context.Context, sc Scenario, algs []sched.Algorithm, gridK int) (*SweepResult, error) {
	p, err := prepSweep(sc, gridK)
	if err != nil {
		return nil, err
	}
	cells := p.cells(algs)
	results := make([]cellResult, len(cells))
	var wg sync.WaitGroup
	work := make(chan int)
	for wkr := 0; wkr < p.sc.Workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range work {
				if err := ctx.Err(); err != nil {
					results[ci] = cellResult{cell: cells[ci], err: err}
					continue
				}
				results[ci] = runCellRange(p, cells[ci], 0, p.sc.Reps)
			}
		}()
	}
	for ci := range cells {
		work <- ci
	}
	close(work)
	wg.Wait()

	out := p.result()
	if err := aggregateCells(out, algs, p.sc.Instances, p.gridK, p.anchors, p.common, results); err != nil {
		return nil, err
	}
	return out, nil
}

// cellIndex locates the (algorithm, instance, budget) cell in the
// enumeration order of RunSweepCtx.
func cellIndex(ai, i, b, instances, gridK int) int {
	return (ai*instances+i)*gridK + b
}

// aggregateCells folds per-cell results into per-(algorithm, budget)
// Points. Cells are addressed by cellIndex, so the whole aggregation
// is O(cells); a previous version rescanned the full results slice for
// every (algorithm × instance × budget) triple, which made large
// sweeps quadratic in the number of cells
// (TestAggregateCellsLinearInCells pins the fix).
func aggregateCells(out *SweepResult, algs []sched.Algorithm, instances, gridK int, anchors []*Anchors, commonFactors []float64, results []cellResult) error {
	for ai, alg := range algs {
		series := Series{Algorithm: alg.Name}
		for b := 0; b < gridK; b++ {
			var mk, cost, vms, pt []float64
			valid, total, completed := 0, 0, 0
			spotVMs, revocations := 0, 0
			rework := 0.0
			budgetSum := 0.0
			for i := 0; i < instances; i++ {
				r := results[cellIndex(ai, i, b, instances, gridK)]
				if r.err != nil {
					return fmt.Errorf("exp: %s instance %d budget %d: %w", alg.Name, i, b, r.err)
				}
				mk = append(mk, r.makespans...)
				cost = append(cost, r.costs...)
				vms = append(vms, r.numVMs)
				pt = append(pt, r.planTime)
				valid += r.valid
				completed += r.completed
				spotVMs += r.spotVMs
				revocations += r.revocations
				rework += r.reworkCost
				total += len(r.makespans)
				budgetSum += commonFactors[b] * anchors[i].CheapCost
			}
			p := Point{
				Factor:   commonFactors[b],
				Budget:   budgetSum / float64(instances),
				Makespan: stats.Summarize(mk),
				Cost:     stats.Summarize(cost),
				NumVMs:   stats.Summarize(vms),
				PlanTime: stats.Summarize(pt),
			}
			if total > 0 {
				p.ValidFrac = float64(valid) / float64(total)
				p.SuccessFrac = float64(completed) / float64(total)
				p.SpotVMs = float64(spotVMs) / float64(total)
				p.Revocations = float64(revocations) / float64(total)
				p.ReworkCost = rework / float64(total)
			}
			series.Points = append(series.Points, p)
		}
		out.Series = append(out.Series, series)
	}
	return nil
}

// runCellRange plans one instance at one budget and replays the
// replications [repStart, repEnd) with stochastic weights. Each
// replication's weight stream is derived solely from the scenario seed
// and the (instance, budget, algorithm, rep) coordinates — never from
// which block, worker or process computes it — so a cell evaluated as
// several disjoint rep ranges concatenates to exactly the full-cell
// run (the bit-identical sharding guarantee, pinned by the property
// test in shard_test.go).
func runCellRange(p *sweepPrep, c cell, repStart, repEnd int) cellResult {
	sc := p.sc
	res := cellResult{cell: c}
	w := p.instances[c.instance]
	budget := p.common[c.budgetIx] * p.anchors[c.instance].CheapCost

	start := time.Now()
	s, err := c.alg.Plan(w, sc.Platform, budget)
	res.planTime = time.Since(start).Seconds()
	if err != nil {
		res.err = err
		return res
	}
	res.numVMs = float64(s.NumVMs())
	res.makespans = make([]float64, 0, max(repEnd-repStart, 0))
	res.costs = make([]float64, 0, max(repEnd-repStart, 0))
	simP := sc.Platform
	if sc.SimPlatform != nil {
		simP = sc.SimPlatform
	}

	if sc.Estimator == EstimatorAnalytic {
		// One closed-form propagation per cell instead of Reps simulated
		// executions. Pseudo-samples are the estimate's quantiles at the
		// rep midpoints (rep + ½)/Reps — a deterministic function of the
		// cell coordinates alone, so disjoint rep ranges concatenate to
		// exactly the full-cell run, the same sharding contract the MC
		// path gets from its split RNG streams.
		e, err := est.Compute(w, simP, s)
		if err != nil {
			res.err = err
			return res
		}
		for rep := repStart; rep < repEnd; rep++ {
			q := (float64(rep) + 0.5) / float64(sc.Reps)
			cost := e.CostQuantile(q)
			res.makespans = append(res.makespans, e.MakespanQuantile(q))
			res.costs = append(res.costs, cost)
			res.completed++
			if cost <= budget {
				res.valid++
			}
		}
		return res
	}

	// One decorrelated stream per cell, stable across worker
	// interleavings: derived from scenario seed, instance, budget
	// index and algorithm name.
	stream := rng.New(sc.Seed).Split(uint64(c.instance)<<32 | uint64(c.budgetIx)<<16 | hashName(string(c.alg.Name)))

	if simP.HasSpot() {
		// Spot platforms replay through the online executor — plain
		// simulation cannot revoke a VM. Weights reuse the cell stream's
		// derivation, and revocation-trace seeds come from a stream that
		// involves neither the discount nor the hazard rate, so a
		// discount×rate grid over the same scenario seed is a paired
		// comparison (common random numbers), mirroring faultsweep.go.
		seedStream := rng.New(sc.Seed).Split(uint64(c.instance)<<32 | uint64(c.budgetIx)<<16 | hashName("spot-trace"))
		for rep := repStart; rep < repEnd; rep++ {
			weights := sim.SampleWeights(w, stream.Split(uint64(rep)))
			seed := seedStream.Split(uint64(rep)).Uint64()
			var r *online.Report
			var err error
			if spec := market.RevocationSpec(simP, seed); spec != nil {
				r, err = online.ExecuteFaulty(w, simP, s, weights, spec, budget)
			} else {
				// Spot categories with zero hazard: discounted, never
				// revoked.
				r, err = online.Execute(w, simP, s, weights, online.Policy{Budget: budget})
			}
			if err != nil {
				res.err = err
				return res
			}
			res.makespans = append(res.makespans, r.Makespan)
			res.costs = append(res.costs, r.TotalCost)
			if r.TotalCost <= budget {
				res.valid++
			}
			if r.Completed {
				res.completed++
			}
			res.spotVMs += r.SpotVMs
			res.revocations += r.Revocations
			res.reworkCost += r.SpotReworkCost
		}
		return res
	}

	runner, err := sim.NewRunner(w, simP, s)
	if err != nil {
		res.err = err
		return res
	}
	for rep := repStart; rep < repEnd; rep++ {
		mk, cost, err := runner.Score(runner.Sample(stream.Split(uint64(rep))))
		if err != nil {
			res.err = err
			return res
		}
		res.makespans = append(res.makespans, mk)
		res.costs = append(res.costs, cost)
		res.completed++
		if cost <= budget {
			res.valid++
		}
	}
	return res
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h & 0xffff
}
