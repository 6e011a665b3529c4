package exp

import (
	"fmt"

	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/sched"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// ablationVariant pairs a label with an option set.
type ablationVariant struct {
	name string
	opt  sched.Options
}

func ablationVariants() []ablationVariant {
	return []ablationVariant{
		{"paper (all safeguards)", sched.Options{}},
		{"no conservative weights", sched.Options{PlanWithMeanWeights: true}},
		{"no pot", sched.Options{DisablePot: true}},
		{"no reserves", sched.Options{DisableReserves: true}},
		{"none (all disabled)", sched.Options{PlanWithMeanWeights: true, DisablePot: true, DisableReserves: true}},
	}
}

// AblationPoint is one (variant, budget) measurement of the ablation
// study.
type AblationPoint struct {
	Variant string
	Point   Point
}

// AblationsData quantifies the contribution of each design choice of
// HEFTBUDG (DESIGN.md §3): the conservative w̄+σ weights, the leftover
// pot, and the Algorithm-1 reserves. For every variant it runs the
// standard budget sweep and returns the minimum-budget point and a
// mid-sweep point; AblationsTable renders them.
func AblationsData(cfg FigureConfig, typ wfgen.Type) ([]AblationPoint, error) {
	cfg = cfg.Defaults()
	var out []AblationPoint
	for _, v := range ablationVariants() {
		opt := v.opt
		alg := sched.Algorithm{
			Name:        sched.Name("heftbudg/" + v.name),
			NeedsBudget: true,
			Plan: func(w *wf.Workflow, p *platform.Platform, budget float64) (*plan.Schedule, error) {
				return sched.HeftBudgOpt(w, p, budget, opt)
			},
		}
		sc := cfg.scenario(typ)
		res, err := RunSweep(sc, []sched.Algorithm{alg}, cfg.GridK)
		if err != nil {
			return nil, fmt.Errorf("exp: ablation %q: %w", v.name, err)
		}
		pts := res.Series[0].Points
		out = append(out,
			AblationPoint{Variant: v.name, Point: pts[0]},
			AblationPoint{Variant: v.name, Point: pts[len(pts)/2]})
	}
	return out, nil
}

// AblationsTable renders pre-computed ablation data as a table.
func AblationsTable(data []AblationPoint, typ wfgen.Type, n int) *Table {
	t := &Table{
		Title: fmt.Sprintf("Ablation — HEFTBUDG design choices, %s, %d tasks", typ, n),
		Columns: []string{
			"variant", "factor", "budget",
			"makespan_mean", "makespan_std", "cost_mean", "valid_pct", "vms",
		},
	}
	for _, d := range data {
		p := d.Point
		t.AddRow(d.Variant, p.Factor, p.Budget,
			p.Makespan.Mean, p.Makespan.StdDev, p.Cost.Mean,
			100*p.ValidFrac, p.NumVMs.Mean)
	}
	return t
}
