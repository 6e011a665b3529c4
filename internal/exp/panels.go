package exp

import (
	"fmt"

	"budgetwf/internal/sched"
	"budgetwf/internal/viz"
)

// algorithmSlot fixes each algorithm's palette slot by identity: the
// same algorithm wears the same hue in every figure (color follows the
// entity, never its per-chart rank). CG and CG+ share the orange slot
// — they never co-occur in one panel — and every per-figure subset was
// validated for adjacent-pair CVD separation.
var algorithmSlot = map[sched.Name]int{
	sched.NameMinMin:          1, // blue
	sched.NameHeft:            2, // aqua
	sched.NameMinMinBudg:      3, // yellow
	sched.NameHeftBudg:        4, // green
	sched.NameHeftBudgPlus:    5, // violet
	sched.NameBDT:             6, // red
	sched.NameHeftBudgPlusInv: 7, // magenta
	sched.NameCG:              8, // orange
	sched.NameCGPlus:          8, // orange (never shown beside CG)
}

// Metric selects which panel of a sweep to draw — the columns of the
// paper's figures.
type Metric string

// The panels: makespan, cost and VMs are every figure's three columns;
// valid is Figure 3's middle row.
const (
	MetricMakespan Metric = "makespan"
	MetricCost     Metric = "cost"
	MetricVMs      Metric = "vms"
	MetricValid    Metric = "valid"
)

// SweepChart turns one sweep result into one panel. Makespan panels
// use a log y-axis so the min_cost reference (an order of magnitude
// above the curves) stays on scale.
func SweepChart(res *SweepResult, metric Metric) (*viz.LineChart, error) {
	c := &viz.LineChart{
		XLabel:   "initial budget [$]",
		Subtitle: fmt.Sprintf("%s, %d tasks, σ/w̄ = %.2f, %d × %d stochastic runs", res.Scenario.Type, res.Scenario.N, res.Scenario.SigmaRatio, res.Scenario.Instances, res.Scenario.Reps),
	}
	switch metric {
	case MetricMakespan:
		c.Title = fmt.Sprintf("Makespan vs budget — %s", res.Scenario.Type)
		c.YLabel = "makespan [s]"
		c.LogY = true
	case MetricCost:
		c.Title = fmt.Sprintf("Realized cost vs budget — %s", res.Scenario.Type)
		c.YLabel = "cost [$]"
	case MetricVMs:
		c.Title = fmt.Sprintf("VMs enrolled vs budget — %s", res.Scenario.Type)
		c.YLabel = "VMs"
	case MetricValid:
		c.Title = fmt.Sprintf("Budget-respecting executions vs budget — %s", res.Scenario.Type)
		c.YLabel = "valid executions [%]"
	default:
		return nil, fmt.Errorf("exp: unknown chart metric %q", metric)
	}

	for _, s := range res.Series {
		slot, ok := algorithmSlot[s.Algorithm]
		if !ok {
			return nil, fmt.Errorf("exp: no palette slot for algorithm %q", s.Algorithm)
		}
		series := viz.Series{Name: string(s.Algorithm), Slot: slot}
		for _, p := range s.Points {
			pt := viz.Point{X: p.Budget}
			switch metric {
			case MetricMakespan:
				pt.Y, pt.Spread = p.Makespan.Mean, p.Makespan.StdDev
			case MetricCost:
				pt.Y, pt.Spread = p.Cost.Mean, p.Cost.StdDev
			case MetricVMs:
				pt.Y, pt.Spread = p.NumVMs.Mean, p.NumVMs.StdDev
			case MetricValid:
				pt.Y = 100 * p.ValidFrac
			}
			series.Points = append(series.Points, pt)
		}
		c.Series = append(c.Series, series)
	}
	if metric == MetricMakespan {
		c.Refs = append(c.Refs, viz.RefPoint{Label: "min_cost", X: res.MinCostBudget, Y: res.MinCostMakespan})
	}
	return c, nil
}

// ablationChart draws the ablations' minimum-budget points (every other
// point of AblationsData) as one bar per variant.
func ablationChart(data []AblationPoint, n int) *viz.BarChart {
	chart := &viz.BarChart{
		Title:    "Ablation — HEFTBUDG makespan at the minimum budget",
		Subtitle: fmt.Sprintf("montage, %d tasks; shorter is faster, but only valid schedules count", n),
		XLabel:   "makespan [s]",
		Unit:     " s",
	}
	for i := 0; i < len(data); i += 2 {
		p := data[i].Point
		chart.Bars = append(chart.Bars, viz.Bar{
			Label: data[i].Variant,
			Value: p.Makespan.Mean,
			Note:  fmt.Sprintf("%.0f%% valid", 100*p.ValidFrac),
		})
	}
	return chart
}
