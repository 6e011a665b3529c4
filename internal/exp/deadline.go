package exp

import (
	"context"
	"fmt"

	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/sim"
	"budgetwf/internal/wfgen"
)

// DeadlineFrontier maps the bi-criteria objective of Equation (3):
// for each budget on the grid it reports the probability (over
// stochastic executions) of meeting each of several deadlines while
// staying within the budget. The deadlines are expressed relative to
// the budget-blind HEFT baseline makespan: D = baseline × {1.0, 1.25,
// 1.5, 2.0}. The paper states the objective but evaluates budget
// compliance only; this driver completes the picture.
func DeadlineFrontier(cfg FigureConfig, typ wfgen.Type, alg sched.Name) (*Table, error) {
	cfg = cfg.Defaults()
	a, err := sched.ByName(alg)
	if err != nil {
		return nil, err
	}
	deadlineFactors := []float64{1.0, 1.25, 1.5, 2.0}

	t := &Table{
		Title: fmt.Sprintf("Deadline frontier — %s, %s, %d tasks (deadlines relative to the HEFT baseline makespan)", alg, typ, cfg.N),
		Columns: []string{
			"workflow", "factor", "budget",
			"p_deadline_1.00x", "p_deadline_1.25x", "p_deadline_1.50x", "p_deadline_2.00x",
			"p_budget",
		},
	}

	sc := cfg.scenario(typ).Defaults()
	insts, err := sc.materialize()
	if err != nil {
		return nil, err
	}
	factors := commonFactors(insts, cfg.GridK)

	for b := 0; b < cfg.GridK; b++ {
		met := make([]int, len(deadlineFactors))
		budgetMet, total := 0, 0
		budgetSum := 0.0
		for i, in := range insts {
			budget := factors[b] * in.a.CheapCost
			budgetSum += budget
			s, err := a.Plan(in.w, sc.Platform, budget)
			if err != nil {
				return nil, err
			}
			batch, err := Replay{
				Workflow: in.w, Platform: sc.Platform, Schedule: s, Budget: budget, Reps: sc.Reps,
				Weights: rng.New(sc.Seed).Split(uint64(i)<<20 | uint64(b)),
			}.Run(context.Background())
			if err != nil {
				return nil, err
			}
			total += batch.Reps
			budgetMet += batch.InBudget
			for di, df := range deadlineFactors {
				st, err := batch.Objective(sim.Objective{Deadline: df * in.a.BaselineMakespan, Budget: budget})
				if err != nil {
					return nil, err
				}
				met[di] += st.BothMet
			}
		}
		row := []interface{}{string(typ), factors[b], budgetSum / float64(sc.Instances)}
		for _, m := range met {
			row = append(row, float64(m)/float64(total))
		}
		row = append(row, float64(budgetMet)/float64(total))
		t.AddRow(row...)
	}
	return t, nil
}
