package exp

import (
	"fmt"

	"budgetwf/internal/sched"
	"budgetwf/internal/wfgen"
)

// FigureConfig controls the scale of a figure reproduction. The
// defaults match the paper (90-task workflows, 5 instances, 25
// replications); tests and quick runs shrink them.
type FigureConfig struct {
	N          int
	SigmaRatio float64
	Instances  int
	Reps       int
	GridK      int
	Workers    int
	Seed       uint64
	// Estimator selects the per-cell evaluation backend for every
	// sweep of the figure: Scenario's EstimatorMC (default) or
	// EstimatorAnalytic.
	Estimator string
}

// Defaults fills zero fields with the paper's values.
func (c FigureConfig) Defaults() FigureConfig {
	if c.N == 0 {
		c.N = DefaultFigureTasks
	}
	if c.SigmaRatio == 0 {
		c.SigmaRatio = DefaultSigmaRatio
	}
	if c.Instances == 0 {
		c.Instances = DefaultInstances
	}
	if c.Reps == 0 {
		c.Reps = DefaultReps
	}
	if c.GridK == 0 {
		c.GridK = DefaultGridK
	}
	return c
}

func (c FigureConfig) scenario(t wfgen.Type) Scenario {
	return Scenario{
		Type: t, N: c.N, SigmaRatio: c.SigmaRatio,
		Instances: c.Instances, Reps: c.Reps, Workers: c.Workers, Seed: c.Seed,
		Estimator: c.Estimator,
	}
}

// SweepRunner evaluates one scenario over a budget grid. The default
// is the in-process RunSweep; cmd/paperfigs substitutes a
// dist.Coordinator-backed runner to spread figure campaigns over a
// worker cluster (the results are bit-identical either way).
type SweepRunner func(sc Scenario, algs []sched.Algorithm, gridK int) (*SweepResult, error)

// RunFigureSweeps runs the given algorithm set on all three paper
// workflow families and returns the raw sweep results, one per family
// in AllPaperTypes order — the data behind both the tables and the
// SVG panels.
func RunFigureSweeps(cfg FigureConfig, names []sched.Name) ([]*SweepResult, error) {
	return RunFigureSweepsUsing(cfg, names, func(sc Scenario, algs []sched.Algorithm, gridK int) (*SweepResult, error) {
		return RunSweep(sc, algs, gridK)
	})
}

// RunFigureSweepsUsing is RunFigureSweeps with the per-scenario sweep
// delegated to run.
func RunFigureSweepsUsing(cfg FigureConfig, names []sched.Name, run SweepRunner) ([]*SweepResult, error) {
	cfg = cfg.Defaults()
	algs := make([]sched.Algorithm, 0, len(names))
	for _, n := range names {
		a, err := sched.ByName(n)
		if err != nil {
			return nil, err
		}
		algs = append(algs, a)
	}
	var out []*SweepResult
	for _, typ := range wfgen.AllPaperTypes() {
		res, err := run(cfg.scenario(typ), algs, cfg.GridK)
		if err != nil {
			return nil, fmt.Errorf("exp: sweep on %s: %w", typ, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// FigureAlgorithms returns the algorithm set of each paper figure.
func FigureAlgorithms(figure int) ([]sched.Name, error) {
	switch figure {
	case 1:
		return []sched.Name{sched.NameMinMin, sched.NameHeft, sched.NameMinMinBudg, sched.NameHeftBudg}, nil
	case 2:
		return []sched.Name{sched.NameHeft, sched.NameHeftBudg, sched.NameHeftBudgPlus, sched.NameHeftBudgPlusInv}, nil
	case 3:
		return []sched.Name{sched.NameMinMinBudg, sched.NameHeftBudg, sched.NameBDT, sched.NameCG}, nil
	case 4:
		return []sched.Name{sched.NameHeftBudgPlus, sched.NameHeftBudgPlusInv, sched.NameCGPlus}, nil
	}
	return nil, fmt.Errorf("exp: no figure %d", figure)
}

// Figure reproduces paper Figure n (1–4) with the algorithm set
// FigureAlgorithms(n) on all three paper workflow families, one
// long-format table per family: makespan, cost and number of VMs as a
// function of the initial budget, plus the percentage of valid
// (budget-respecting) executions that Figure 3 plots.
func Figure(n int, cfg FigureConfig) ([]*Table, error) {
	names, err := FigureAlgorithms(n)
	if err != nil {
		return nil, err
	}
	cfg = cfg.Defaults()
	sweeps, err := RunFigureSweeps(cfg, names)
	if err != nil {
		return nil, fmt.Errorf("exp: Figure %d: %w", n, err)
	}
	var tables []*Table
	for i, typ := range wfgen.AllPaperTypes() {
		tables = append(tables, SweepTable(fmt.Sprintf("Figure %d — %s, %d tasks", n, typ, cfg.N), sweeps[i]))
	}
	return tables, nil
}
