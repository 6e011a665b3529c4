package exp

import (
	"context"
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

// FigureSweeps is a resolved figure campaign: paper Figure n's
// algorithm set swept over the three paper workflow families (in
// AllPaperTypes order), enumerated end to end. The families' grids are
// the same size k, so family f owns cells [f·k, (f+1)·k), each numbered
// as in its own sweep plus f·k, and a unit range shards a figure
// exactly as it shards one sweep.
type FigureSweeps struct {
	sweeps []*Sweep
}

// NewFigureSweeps resolves Figure n at cfg's scale; it materializes
// nothing.
func NewFigureSweeps(n int, cfg FigureConfig) (*FigureSweeps, error) {
	names, err := FigureAlgorithms(n)
	if err != nil {
		return nil, err
	}
	algs := make([]sched.Algorithm, len(names))
	for i, name := range names {
		if algs[i], err = sched.ByName(name); err != nil {
			return nil, err
		}
	}
	cfg = cfg.Defaults()
	f := &FigureSweeps{}
	for _, typ := range wfgen.AllPaperTypes() {
		s, err := NewSweep(cfg.scenario(typ), algs, cfg.GridK)
		if err != nil {
			return nil, err
		}
		f.sweeps = append(f.sweeps, s)
	}
	return f, nil
}

// Cells is the number of cells of all three family sweeps.
func (f *FigureSweeps) Cells() int { return len(f.sweeps) * f.sweeps[0].Cells() }

// Reps is the number of replications per cell.
func (f *FigureSweeps) Reps() int { return f.sweeps[0].Reps() }

// Run evaluates cells [start, end), materializing only the families the
// range touches.
func (f *FigureSweeps) Run(ctx context.Context, workers, start, end int) ([]Unit, error) {
	if err := checkRange(start, end, f.Cells()); err != nil {
		return nil, err
	}
	k := f.sweeps[0].Cells()
	var out []Unit
	for fam, s := range f.sweeps {
		lo, hi := max(start, fam*k), min(end, (fam+1)*k)
		if lo >= hi {
			continue
		}
		units, err := s.Run(ctx, workers, lo-fam*k, hi-fam*k)
		if err != nil {
			return nil, fmt.Errorf("exp: sweep on %s: %w", s.sc.Type, err)
		}
		for i := range units {
			units[i].Unit += fam * k
		}
		out = append(out, units...)
	}
	return out, nil
}

// Merge reassembles units into the family sweeps RunFigureSweeps
// returns for the same figure.
func (f *FigureSweeps) Merge(units []Unit) ([]*SweepResult, error) {
	ordered, err := OrderUnits(units, 0, f.Cells(), f.Reps())
	if err != nil {
		return nil, err
	}
	k := f.sweeps[0].Cells()
	out := make([]*SweepResult, len(f.sweeps))
	for fam, s := range f.sweeps {
		p, err := s.prep()
		if err != nil {
			return nil, fmt.Errorf("exp: sweep on %s: %w", s.sc.Type, err)
		}
		out[fam] = p.aggregate(ordered[fam*k : (fam+1)*k])
	}
	return out, nil
}

// RunFigureSweeps runs paper Figure n's algorithm set on all three
// paper workflow families and returns the raw sweep results, one per
// family in AllPaperTypes order — the data behind both the tables and
// the SVG panels.
func RunFigureSweeps(n int, cfg FigureConfig) ([]*SweepResult, error) {
	f, err := NewFigureSweeps(n, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]*SweepResult, len(f.sweeps))
	for fam, s := range f.sweeps {
		if out[fam], err = RunSweepCtx(context.Background(), s.sc, s.algs, s.gridK); err != nil {
			return nil, fmt.Errorf("exp: sweep on %s: %w", s.sc.Type, err)
		}
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
	sweeps, err := RunFigureSweeps(n, cfg)
	if err != nil {
		return nil, fmt.Errorf("exp: Figure %d: %w", n, err)
	}
	return figureTables(n, cfg, sweeps), nil
}
