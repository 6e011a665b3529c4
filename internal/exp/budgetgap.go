package exp

import (
	"fmt"

	"budgetwf/internal/platform"
	"budgetwf/internal/sched"
	"budgetwf/internal/stats"
	"budgetwf/internal/wfgen"
)

// BudgetGapTable reproduces the §V-B analysis the paper defers to its
// extended version: the minimal budget each algorithm needs to reach
// the baseline makespan, as a function of the workflow size. The
// paper's finding — "the difference in minimal budgets decreases
// sharply with the number of tasks for CYBERSHAKE and LIGO", because
// growing instances of those families approach a Bag of Tasks where
// HEFTBUDG's priority mechanism stops mattering, "on the contrary,
// larger MONTAGE workflows keep numerous imbricated dependencies ...
// and HEFTBUDG remains more efficient in terms of budget".
//
// Budgets are normalized by each instance's cheapest-schedule cost so
// sizes are comparable; the gap column is the MIN-MINBUDG-to-HEFTBUDG
// ratio of those normalized budgets-to-baseline.
func BudgetGapTable(cfg FigureConfig, sizes []int) (*Table, error) {
	cfg = cfg.Defaults()
	if len(sizes) == 0 {
		sizes = []int{30, 60, 90}
	}
	heftBudg, err := sched.ByName(sched.NameHeftBudg)
	if err != nil {
		return nil, err
	}
	minMinBudg, err := sched.ByName(sched.NameMinMinBudg)
	if err != nil {
		return nil, err
	}
	p := platform.Default()

	t := &Table{
		Title: "Budget to reach the baseline makespan (×cheapest), HEFTBUDG vs MIN-MINBUDG",
		Columns: []string{
			"workflow", "tasks",
			"heftbudg_beta", "minminbudg_beta", "gap_ratio",
		},
	}
	for _, typ := range wfgen.AllPaperTypes() {
		for _, n := range sizes {
			sc := cfg.scenario(typ)
			sc.N, sc.Platform = n, p
			insts, err := sc.materialize()
			if err != nil {
				return nil, err
			}
			var hb, mm []float64
			for _, in := range insts {
				bH, _, err := BudgetToBaseline(in.w, p, heftBudg)
				if err != nil {
					return nil, err
				}
				bM, _, err := BudgetToBaseline(in.w, p, minMinBudg)
				if err != nil {
					return nil, err
				}
				hb = append(hb, bH/in.a.CheapCost)
				mm = append(mm, bM/in.a.CheapCost)
			}
			betaH, betaM := stats.Mean(hb), stats.Mean(mm)
			gap := 0.0
			if betaH > 0 {
				gap = betaM / betaH
			}
			t.AddRow(string(typ), n,
				fmt.Sprintf("%.3f", betaH), fmt.Sprintf("%.3f", betaM), fmt.Sprintf("%.3f", gap))
		}
	}
	return t, nil
}
