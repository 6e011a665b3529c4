package main

import (
	"hash/fnv"

	"budgetwf/internal/exp"
	"budgetwf/internal/platform"
	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// sigmaRatio is σ/w̄ of every generated workflow, the paper's central
// value.
const sigmaRatio = 0.5

// sizes fixes how much work each workload does. fullSizes is the
// benchmark; smallSizes exists only so bench_test.go can run every
// workload in seconds.
type sizes struct {
	n int // tasks per workflow where not stated otherwise (paper: 90)

	hotSeeds      int // serve-hot bodies: 3 families × 5 algorithms × hotSeeds
	missWorkflows int // serve-miss bodies: missWorkflows × 5 algorithms × 3 budgets
	cacheSize     int // serve-miss: daemon plan-cache entries; 0 keeps the daemon's default (512)
	traceBodies   int // serve bodies the traced pass replays

	instances int // figs-list and jobs-cluster: workflow instances per sweep
	gridK     int // ... budgets per instance
	reps      int // ... Monte Carlo replications per cell

	refineN     int // figs-refine: tasks per workflow
	refineGridK int // figs-refine: budgets (one instance)

	planSizes   []int // plan-scale: Montage sizes; the refined planners run at the first only
	tracedJobs  int   // jobs-cluster: jobs verified against /v1/sweep and replayed traced
	poolTasks   int   // pool-tenants: tasks per submitted workflow
	poolPerTen  int   // pool-tenants: submissions per tenant
	loopbackOps int   // GET /healthz round trips behind server.loopback_us
}

var fullSizes = sizes{
	n:        90,
	hotSeeds: 2, missWorkflows: 100, traceBodies: 200,
	instances: 5, gridK: 8, reps: 25,
	// n = 60, not 90: one pass over the three families is then ≈ 1.3 s
	// instead of ≈ 4.6 s, so a 10 s phase holds several passes and the
	// median means something; refinement is still > 95% of the time.
	refineN: 60, refineGridK: 4,
	planSizes:  []int{90, 300, 1000},
	tracedJobs: 6,
	poolTasks:  30, poolPerTen: 1000,
	loopbackOps: 200,
}

var smallSizes = sizes{
	n:        30,
	hotSeeds: 1, missWorkflows: 3, cacheSize: 8, traceBodies: 10,
	instances: 2, gridK: 3, reps: 3,
	refineN: 20, refineGridK: 2,
	planSizes:  []int{20, 30, 40},
	tracedJobs: 3,
	poolTasks:  20, poolPerTen: 40,
	loopbackOps: 10,
}

// itemSeed derives the seed of one generated input from the run's
// seed, the workload's name and the item's index.
func itemSeed(seed uint64, workload string, index int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rng.New(seed).Split(h.Sum64()).Split(uint64(index)).Uint64()
}

// generate builds one workflow of the family at the paper's σ/w̄.
func generate(family wfgen.Type, n int, seed uint64) (*wf.Workflow, error) {
	w, err := wfgen.Generate(family, n, seed)
	if err != nil {
		return nil, err
	}
	return w.WithSigmaRatio(sigmaRatio), nil
}

// budgetAt places a budget between the workflow's cheapest cost and
// the budget that buys unlimited VMs: 0.5 is Table III's "medium".
func budgetAt(a *exp.Anchors, frac float64) float64 {
	return a.CheapCost + frac*(a.High-a.CheapCost)
}

// mediumBudget is budgetAt 0.5 for a workflow whose anchors are not
// needed otherwise.
func mediumBudget(w *wf.Workflow, p *platform.Platform) (float64, error) {
	a, err := exp.ComputeAnchors(w, p)
	if err != nil {
		return 0, err
	}
	return budgetAt(a, 0.5), nil
}

func algorithms(names ...sched.Name) ([]sched.Algorithm, error) {
	out := make([]sched.Algorithm, 0, len(names))
	for _, n := range names {
		a, err := sched.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}
