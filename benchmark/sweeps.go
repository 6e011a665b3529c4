package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"time"

	"budgetwf/internal/est"
	"budgetwf/internal/exp"
	"budgetwf/internal/obs"
	"budgetwf/internal/platform"
	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/sim"
	"budgetwf/internal/stats"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// sweepWorkers is Scenario.Workers of the in-process sweeps: both
// cores of the reference machine, as cmd/paperfigs would use.
const sweepWorkers = 2

// sweepWorkload is figs-list and figs-refine: what cmd/paperfigs costs.
// One op is one figure's worth of budget sweeps — exp.RunSweep on each
// of the paper's three families. figs-list runs the list schedulers of
// Figures 1 and 3 at the paper's scale with Monte Carlo replication
// (the simulator dominates); figs-refine runs Figure 2's refinement
// planners with the analytic estimator (the planners dominate, the
// simulator does nothing).
type sweepWorkload struct {
	name      string
	algs      []sched.Name
	scenarios []exp.Scenario // one per family
	gridK     int
	refs      []string // canonical form of each family's reference result
	sum       string
}

func newSweepWorkload(sz sizes, refine bool) *sweepWorkload {
	s := &sweepWorkload{name: "figs-list", gridK: sz.gridK}
	sc := exp.Scenario{N: sz.n, SigmaRatio: sigmaRatio, Instances: sz.instances, Reps: sz.reps, Workers: sweepWorkers}
	s.algs = []sched.Name{
		sched.NameMinMin, sched.NameHeft, sched.NameMinMinBudg, sched.NameHeftBudg, sched.NameBDT, sched.NameCG,
	}
	if refine {
		s.name, s.gridK = "figs-refine", sz.refineGridK
		s.algs = []sched.Name{sched.NameHeft, sched.NameHeftBudg, sched.NameHeftBudgPlus, sched.NameHeftBudgPlusInv}
		sc.N, sc.Instances, sc.Estimator = sz.refineN, 1, exp.EstimatorAnalytic
	}
	for _, family := range wfgen.AllPaperTypes() {
		sc.Type = family
		s.scenarios = append(s.scenarios, sc)
	}
	return s
}

// setup runs the figure once: the warm-up, and the reference every
// measured op must reproduce.
func (s *sweepWorkload) setup(e *env) error {
	digest := sha256.New()
	for i := range s.scenarios {
		s.scenarios[i].Seed = itemSeed(e.seed, s.name, i)
	}
	refs, err := s.figure()
	if err != nil {
		return err
	}
	s.refs = refs
	for _, r := range refs {
		digest.Write([]byte(r))
	}
	s.sum = hex.EncodeToString(digest.Sum(nil))
	return nil
}

// figure is one op: the sweep of every family, returned in canonical
// form.
func (s *sweepWorkload) figure() ([]string, error) {
	algs, err := algorithms(s.algs...)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(s.scenarios))
	for i, sc := range s.scenarios {
		res, err := exp.RunSweep(sc, algs, s.gridK)
		if err != nil {
			return nil, err
		}
		out[i] = canonicalSweep(res)
	}
	return out, nil
}

// canonicalSweep renders a sweep result without its wall-clock field
// (PlanTime), so equal inputs render equally.
func canonicalSweep(res *exp.SweepResult) string {
	for _, series := range res.Series {
		for i := range series.Points {
			series.Points[i].PlanTime = stats.Summary{}
		}
	}
	return fmt.Sprintf("%v %v %v %+v", res.MinCostMakespan, res.MinCostBudget, res.BaselineMakespan, res.Series)
}

func (s *sweepWorkload) run(e *env, d time.Duration) (*phase, error) {
	ph := &phase{}
	mem0 := readMem()
	start := time.Now()
	for ph.attempted == 0 || time.Since(start) < d {
		t0 := time.Now()
		got, err := s.figure()
		lat := time.Since(t0)
		ph.attempted++
		if err != nil {
			return nil, err
		}
		if !slices.Equal(got, s.refs) {
			warn("%s: a sweep result differs from the reference", s.name)
			ph.failed++
			continue
		}
		ph.latMs = append(ph.latMs, float64(lat)/float64(time.Millisecond))
	}
	ph.wall = time.Since(start)
	ph.mem = readMem().sub(mem0)
	return ph, nil
}

// traced runs the real op once inside a span, then replays, on the
// same (instance, budget) grid the sweeps used, the layer calls a
// sweep makes: ComputeAnchors per instance, Plan per cell, and per cell
// either NewRunner plus the replications or est.Compute. The replay is
// sequential, so its total against op time × workers is the share of
// the sweep the layers account for; the rest is the sweep driver.
func (s *sweepWorkload) traced(e *env, rec *recorder, untraced *phase) (map[string]float64, error) {
	var err error
	rec.time("exp.figure", -1, 0, func() { _, err = s.figure() })
	if err != nil {
		return nil, err
	}
	algs, err := algorithms(s.algs...)
	if err != nil {
		return nil, err
	}
	plat := platform.Default()
	cells, runs := 0, 0
	var simPlain, simTraced time.Duration
	for f, sc := range s.scenarios {
		op := f + 1
		root := rec.begin("replay", -1, op)
		sc = sc.Defaults()
		// The budget grid, as exp's sweep preparation derives it: each
		// instance's anchors, and the factor grid reaching furthest.
		instances := make([]*wf.Workflow, sc.Instances)
		anchors := make([]*exp.Anchors, sc.Instances)
		var factors []float64
		for i := range anchors {
			w, err := sc.Instance(i)
			if err != nil {
				return nil, err
			}
			instances[i] = w
			rec.time("exp.anchors", root, op, func() { anchors[i], err = exp.ComputeAnchors(w, plat) })
			if err != nil {
				return nil, err
			}
			if fs := anchors[i].BudgetFactors(s.gridK); factors == nil || fs[s.gridK-1] > factors[s.gridK-1] {
				factors = fs
			}
		}
		for ai, alg := range algs {
			for i, w := range instances {
				for b, factor := range factors {
					budget := factor * anchors[i].CheapCost
					cells++
					plan := rec.begin("sched.plan", root, op)
					schedule, err := alg.Plan(w, plat, budget)
					rec.end(plan)
					if err != nil {
						return nil, err
					}
					if sc.Estimator == exp.EstimatorAnalytic {
						rec.time("est.compute", root, op, func() { _, err = est.Compute(w, plat, schedule) })
						if err != nil {
							return nil, err
						}
						continue
					}
					var runner *sim.Runner
					rec.time("sim.new_runner", root, op, func() { runner, err = sim.NewRunner(w, plat, schedule) })
					if err != nil {
						return nil, err
					}
					stream := rng.New(sc.Seed).Split(uint64(ai)<<40 | uint64(i)<<20 | uint64(b))
					rec.time("sim.runs", root, op, func() {
						for r := 0; r < sc.Reps && err == nil; r++ {
							_, err = runner.RunStochastic(stream.Split(uint64(r)))
						}
					})
					runs += sc.Reps
					// Tracing's cost on the simulator's hot loop: the same
					// replications again, each once without and once with an
					// obs span on the runner. The second run of a replication
					// finds caches and branch predictors warm, so which of the
					// two goes first alternates. Not one of the sweep's layers.
					rec.time("obs.sim_ratio", root, op, func() {
						sp := obs.New("benchmark").Root()
						for r := 0; r < 2*sc.Reps && err == nil; r++ {
							traced := (r/2+r)%2 == 1 // plain, traced, traced, plain, …
							if traced {
								runner.SetSpan(sp)
							}
							t0 := time.Now()
							_, err = runner.RunStochastic(stream.Split(uint64(r / 2)))
							d := time.Since(t0)
							runner.SetSpan(nil)
							if traced {
								simTraced += d
							} else {
								simPlain += d
							}
						}
					})
					if err != nil {
						return nil, err
					}
				}
			}
		}
		rec.end(root)
	}

	// The figure's processor time: its op time on every worker.
	opMs := median(untraced.latMs)
	cpuMs := opMs * sweepWorkers
	anchorsMs := rec.total("exp.anchors", time.Millisecond)
	planMs := rec.total("sched.plan", time.Millisecond)
	simMs := rec.total("sim.new_runner", time.Millisecond) + rec.total("sim.runs", time.Millisecond)
	estMs := rec.total("est.compute", time.Millisecond)
	layers := map[string]float64{
		"exp.anchors_ms":             rec.medianOf("exp.anchors", time.Millisecond),
		"exp.cells":                  float64(cells),
		"exp.cells_per_s":            ratio(float64(cells), opMs/1000),
		"exp.driver_share":           1 - ratio(anchorsMs+planMs+simMs+estMs, cpuMs),
		"sched.share":                ratio(planMs, cpuMs),
		"sim.share":                  ratio(simMs, cpuMs),
		"sim.runs":                   float64(runs),
		"sim.run_us":                 ratio(rec.total("sim.runs", time.Microsecond), float64(runs)),
		"est.share":                  ratio(estMs, cpuMs),
		"est.compute_us":             rec.medianOf("est.compute", time.Microsecond),
		"obs.sim_traced_ratio":       ratio(float64(simTraced), float64(simPlain)),
		"bench.trace_overhead_share": ratio(rec.total("exp.figure", time.Millisecond), opMs) - 1,
	}
	if layers["exp.driver_share"] < -0.05 {
		warn("%s: the replayed layers cost %.0f%% more than the sweep's own processor time", s.name, -100*layers["exp.driver_share"])
	}
	return layers, nil
}

func (s *sweepWorkload) digest() string { return s.sum }
func (s *sweepWorkload) close()         {}
