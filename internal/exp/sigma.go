package exp

import (
	"fmt"

	"budgetwf/internal/platform"
	"budgetwf/internal/sched"
	"budgetwf/internal/wfgen"
)

// SigmaSweep reproduces the extended-version experiment discussed in
// §V-B: the impact of the amount of uncertainty. For each σ/w̄ ratio
// in {0.25, 0.50, 0.75, 1.00} it sweeps the budget and reports the
// makespan curve plus the fraction of budget-respecting executions.
// The paper's finding: a larger σ requires a larger initial budget to
// achieve a given makespan, yet the budget constraint keeps being
// respected even when task weights can reach twice their mean.
func SigmaSweep(cfg FigureConfig, typ wfgen.Type, alg sched.Name) ([]*Table, error) {
	cfg = cfg.Defaults()
	a, err := sched.ByName(alg)
	if err != nil {
		return nil, err
	}
	var tables []*Table
	for _, sigma := range []float64{0.25, 0.50, 0.75, 1.00} {
		sc := cfg.scenario(typ)
		sc.SigmaRatio = sigma
		res, err := RunSweep(sc, []sched.Algorithm{a}, cfg.GridK)
		if err != nil {
			return nil, fmt.Errorf("exp: sigma sweep σ=%.2f: %w", sigma, err)
		}
		tables = append(tables, SweepTable(
			fmt.Sprintf("Sigma sweep — %s, %s, σ/w̄ = %.2f", alg, typ, sigma), res))
	}
	return tables, nil
}

// ContentionAblation reproduces the anomaly of §V-B: with budgets near
// the minimum, LIGO executions can exceed the budget because the
// datacenter bandwidth saturates under many simultaneous transfers —
// an effect the planner's model (and the paper's) assumes away. In the
// capped mode the planner and the budget anchors keep assuming an
// unbounded datacenter while the *simulator* enforces a finite
// aggregate bandwidth, so realized costs can overshoot the budget; the
// drop in the valid-schedule percentage is the anomaly.
func ContentionAblation(cfg FigureConfig, dcBandwidth float64) ([]*Table, error) {
	cfg = cfg.Defaults()
	alg, err := sched.ByName(sched.NameHeftBudg)
	if err != nil {
		return nil, err
	}
	var tables []*Table
	for _, mode := range []struct {
		name string
		bw   float64
	}{
		{"unbounded DC (paper model)", 0},
		{fmt.Sprintf("DC capped at %.0f MB/s, planner unaware", dcBandwidth/1e6), dcBandwidth},
	} {
		sc := cfg.scenario(wfgen.Ligo)
		if mode.bw > 0 {
			capped := platform.Default()
			capped.DCBandwidth = mode.bw
			sc.SimPlatform = capped
		}
		res, err := RunSweep(sc, []sched.Algorithm{alg}, cfg.GridK)
		if err != nil {
			return nil, fmt.Errorf("exp: contention ablation (%s): %w", mode.name, err)
		}
		tables = append(tables, SweepTable("Contention ablation — "+mode.name, res))
	}
	return tables, nil
}
