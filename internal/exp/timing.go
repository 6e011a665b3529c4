package exp

import (
	"fmt"
	"time"

	"budgetwf/internal/platform"
	"budgetwf/internal/sched"
	"budgetwf/internal/stats"
	"budgetwf/internal/wfgen"
)

// BudgetLevel names the three characteristic budgets of Table III.
type BudgetLevel string

// The paper's three budget levels (§V-B): "low" is the minimum budget
// needed to find a schedule, "high" is large enough to enroll
// unlimited VMs, and "medium" is halfway between the minimum budget
// achieving the baseline makespan and the low one.
const (
	BudgetLow    BudgetLevel = "low"
	BudgetMedium BudgetLevel = "medium"
	BudgetHigh   BudgetLevel = "high"
)

// levelBudget maps a level to an actual budget using the anchors.
func levelBudget(l BudgetLevel, a *Anchors) float64 {
	switch l {
	case BudgetLow:
		return a.CheapCost
	case BudgetMedium:
		return (a.CheapCost + a.High) / 2
	default:
		return a.High
	}
}

// TimingConfig controls the Table III reproduction.
type TimingConfig struct {
	Type wfgen.Type
	// Repeats is how many times each planning run is measured; the
	// paper uses 30 instances per parameter combination.
	Repeats   int
	Instances int
	Seed      uint64
}

func (c TimingConfig) defaults() TimingConfig {
	if c.Type == "" {
		c.Type = wfgen.Montage
	}
	if c.Repeats == 0 {
		c.Repeats = 5
	}
	if c.Instances == 0 {
		c.Instances = 3
	}
	return c
}

// measurePlan times alg on the given instances/budgets and returns a
// summary in seconds.
func measurePlan(cfg TimingConfig, alg sched.Algorithm, n int, level BudgetLevel, sigma float64) (stats.Summary, error) {
	p := platform.Default()
	insts, err := Scenario{Type: cfg.Type, N: n, SigmaRatio: sigma, Platform: p, Instances: cfg.Instances, Seed: cfg.Seed}.materialize()
	if err != nil {
		return stats.Summary{}, err
	}
	var xs []float64
	for _, in := range insts {
		budget := levelBudget(level, in.a)
		for r := 0; r < cfg.Repeats; r++ {
			start := time.Now()
			if _, err := alg.Plan(in.w, p, budget); err != nil {
				return stats.Summary{}, err
			}
			xs = append(xs, time.Since(start).Seconds())
		}
	}
	return stats.Summarize(xs), nil
}

// Table3a reproduces Table III(a): CPU time to compute a schedule for
// a 90-task MONTAGE workflow under low, medium and high budgets, for
// every algorithm.
func Table3a(cfg TimingConfig, algNames []sched.Name) (*Table, error) {
	cfg = cfg.defaults()
	t := &Table{
		Title:   fmt.Sprintf("Table III(a) — scheduling time [s], %s 90 tasks", cfg.Type),
		Columns: append([]string{"budget"}, namesToStrings(algNames)...),
	}
	for _, level := range []BudgetLevel{BudgetLow, BudgetMedium, BudgetHigh} {
		cells, err := timingRow(cfg, algNames, 90, level)
		if err != nil {
			return nil, err
		}
		t.AddRow(append([]interface{}{string(level)}, cells...)...)
	}
	return t, nil
}

// Table3b reproduces Table III(b): CPU time versus workflow size
// (30, 60, 90 and 400 tasks) under a high budget.
func Table3b(cfg TimingConfig, algNames []sched.Name, sizes []int) (*Table, error) {
	cfg = cfg.defaults()
	if len(sizes) == 0 {
		sizes = []int{30, 60, 90, 400}
	}
	t := &Table{
		Title:   fmt.Sprintf("Table III(b) — scheduling time [s] vs size, %s, high budget", cfg.Type),
		Columns: append([]string{"tasks"}, namesToStrings(algNames)...),
	}
	for _, n := range sizes {
		cells, err := timingRow(cfg, algNames, n, BudgetHigh)
		if err != nil {
			return nil, err
		}
		t.AddRow(append([]interface{}{n}, cells...)...)
	}
	return t, nil
}

// timingRow measures every algorithm of one Table III row and renders
// each as "mean ± std-dev (ratio×)": seconds to three significant
// digits, since the list planners take tenths of a millisecond, and
// the ratio to HEFTBUDG's mean in the same row, the quantity the paper
// compares across algorithms. The ratio is left out when the row has
// no HEFTBUDG cell.
func timingRow(cfg TimingConfig, algNames []sched.Name, n int, level BudgetLevel) ([]interface{}, error) {
	sums := make([]stats.Summary, len(algNames))
	var base *stats.Summary
	for i, name := range algNames {
		alg, err := sched.ByName(name)
		if err != nil {
			return nil, err
		}
		if sums[i], err = measurePlan(cfg, alg, n, level, 0.5); err != nil {
			return nil, err
		}
		if name == sched.NameHeftBudg {
			base = &sums[i]
		}
	}
	cells := make([]interface{}, len(algNames))
	for i, s := range sums {
		if base == nil {
			cells[i] = fmt.Sprintf("%.3g ± %.2g", s.Mean, s.StdDev)
		} else {
			cells[i] = fmt.Sprintf("%.3g ± %.2g (%.3g×)", s.Mean, s.StdDev, s.Mean/base.Mean)
		}
	}
	return cells, nil
}

func namesToStrings(names []sched.Name) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = string(n)
	}
	return out
}
