package exp

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"budgetwf/internal/sched"
	"budgetwf/internal/wfgen"
)

// Output is one declared output of the evaluation: a paper figure or
// table (§V), or one of our extensions. Outputs lists them all;
// cmd/paperfigs regenerates them by name, and TestPaperOutputs checks
// every non-timing one against the committed results/.
type Output struct {
	// Name selects the output (paperfigs -fig/-table) and prefixes the
	// files it writes.
	Name string
	// Heading is the output's section heading in the HTML report.
	Heading string
	// Timing marks the outputs whose cells are wall-clock measurements
	// (Table III): they cannot be reproduced byte for byte.
	Timing bool
	// Run regenerates the output at the given scale.
	Run func(OutputConfig) (*Product, error)
}

// Product is what one output regenerates: its tables, and the SVG
// panels that draw them.
type Product struct {
	Tables []*Table
	Panels []Panel
}

// Panel is one chart of an output and the file it is written to.
type Panel struct {
	File  string
	Chart interface{ RenderSVG(io.Writer) error }
}

// OutputConfig is the scale every output runs at. The zero value is
// the paper's methodology; QuickScale shrinks every output to seconds.
type OutputConfig struct {
	Figure FigureConfig
	Timing TimingConfig
	// Table3bSizes and BudgetGapSizes are the workflow sizes of
	// Table III(b) and of the budget-gap table; nil is the paper's.
	Table3bSizes, BudgetGapSizes []int
	// FigureSweeps runs the family sweeps of Figure n (1–4); nil runs
	// them in-process with RunFigureSweeps. Any replacement must return
	// what RunFigureSweeps would.
	FigureSweeps func(n int, cfg FigureConfig) ([]*SweepResult, error)
}

// QuickScale is the reduced scale of every output: 30-task workflows,
// 2 instances, 5 replications, a 6-point budget grid, and Table III
// timed twice over sizes 30 and 60 only.
func QuickScale() OutputConfig {
	return OutputConfig{
		Figure:         FigureConfig{N: 30, Instances: 2, Reps: 5, GridK: 6},
		Timing:         TimingConfig{Repeats: 2, Instances: 2},
		Table3bSizes:   []int{30, 60},
		BudgetGapSizes: []int{30, 60},
	}
}

// CSVFile names the file the output's i-th table is written to: the
// output's name, the table's index and a slug of its title.
func (o Output) CSVFile(i int, t *Table) string {
	slug := strings.ToLower(t.Title)
	for _, c := range []string{" ", "—", ",", "/", "(", ")", "="} {
		slug = strings.ReplaceAll(slug, c, "_")
	}
	for strings.Contains(slug, "__") {
		slug = strings.ReplaceAll(slug, "__", "_")
	}
	slug = strings.Trim(slug, "_")
	if len(slug) > 60 {
		slug = slug[:60]
	}
	return fmt.Sprintf("%s_%d_%s.csv", o.Name, i, slug)
}

// Outputs is the registry, in the order paperfigs -all runs it.
func Outputs() []Output {
	return []Output{
		{Name: "metrics", Heading: "Benchmark characterization", Run: func(c OutputConfig) (*Product, error) {
			f := c.Figure.Defaults()
			return table(MetricsTable(nil, f.N, f.Instances, f.Seed))
		}},
		figureOutput(1), figureOutput(2), figureOutput(3), figureOutput(4),
		{Name: "3a", Heading: "Table III(a) — scheduling CPU time per budget level", Timing: true, Run: func(c OutputConfig) (*Product, error) {
			return table(Table3a(c.Timing, paperNames()))
		}},
		{Name: "3b", Heading: "Table III(b) — scheduling CPU time vs workflow size", Timing: true, Run: func(c OutputConfig) (*Product, error) {
			return table(Table3b(c.Timing, paperNames(), c.Table3bSizes))
		}},
		{Name: "sigma", Heading: "σ-sensitivity (extended version)", Run: func(c OutputConfig) (*Product, error) {
			return tables(SigmaSweep(c.Figure, wfgen.Montage, sched.NameHeftBudg))
		}},
		{Name: "contention", Heading: "Datacenter-contention ablation", Run: func(c OutputConfig) (*Product, error) {
			// Half a VM link of aggregate DC bandwidth, and a modest σ
			// so the planner's conservative margin cannot absorb the
			// whole contention penalty — the regime where the paper
			// observed LIGO budget overruns (§V-B).
			f := c.Figure
			f.SigmaRatio = 0.25
			return tables(ContentionAblation(f, 62.5e6))
		}},
		{Name: "ablations", Heading: "HEFTBUDG design-choice ablations", Run: func(c OutputConfig) (*Product, error) {
			f := c.Figure.Defaults()
			data, err := AblationsData(f, wfgen.Montage)
			if err != nil {
				return nil, err
			}
			return &Product{
				Tables: []*Table{AblationsTable(data, wfgen.Montage, f.N)},
				Panels: []Panel{{File: "ablations_minbudget.svg", Chart: ablationChart(data, f.N)}},
			}, nil
		}},
		{Name: "billing", Heading: "Billing-granularity ablation", Run: func(c OutputConfig) (*Product, error) {
			return tables(BillingAblation(c.Figure, wfgen.Montage, nil))
		}},
		{Name: "deadline", Heading: "Deadline frontier (Equation 3)", Run: func(c OutputConfig) (*Product, error) {
			return table(DeadlineFrontier(c.Figure, wfgen.Montage, sched.NameHeftBudg))
		}},
		{Name: "budgetgap", Heading: "Minimal budget to baseline: HEFTBUDG vs MIN-MINBUDG", Run: func(c OutputConfig) (*Product, error) {
			return table(BudgetGapTable(c.Figure, c.BudgetGapSizes))
		}},
	}
}

// figureOutput is paper Figure n: one table per family and its panels —
// makespan, cost and VMs, plus Figure 3's middle row, the percentage
// of budget-respecting executions.
func figureOutput(n int) Output {
	return Output{Name: strconv.Itoa(n), Heading: fmt.Sprintf("Figure %d", n), Run: func(c OutputConfig) (*Product, error) {
		run := c.FigureSweeps
		if run == nil {
			run = RunFigureSweeps
		}
		sweeps, err := run(n, c.Figure)
		if err != nil {
			return nil, err
		}
		metrics := []Metric{MetricMakespan, MetricCost, MetricVMs}
		if n == 3 {
			metrics = append(metrics, MetricValid)
		}
		p := &Product{Tables: figureTables(n, c.Figure, sweeps)}
		for i, typ := range wfgen.AllPaperTypes() {
			for pi, m := range metrics {
				chart, err := SweepChart(sweeps[i], m)
				if err != nil {
					return nil, err
				}
				p.Panels = append(p.Panels, Panel{File: fmt.Sprintf("fig%d_%s_panel%d.svg", n, typ, pi), Chart: chart})
			}
		}
		return p, nil
	}}
}

// figureTables titles Figure n's family sweeps, one table per family.
func figureTables(n int, cfg FigureConfig, sweeps []*SweepResult) []*Table {
	var out []*Table
	for i, typ := range wfgen.AllPaperTypes() {
		out = append(out, SweepTable(fmt.Sprintf("Figure %d — %s, %d tasks", n, typ, cfg.Defaults().N), sweeps[i]))
	}
	return out
}

func table(t *Table, err error) (*Product, error) {
	if err != nil {
		return nil, err
	}
	return &Product{Tables: []*Table{t}}, nil
}

func tables(ts []*Table, err error) (*Product, error) {
	if err != nil {
		return nil, err
	}
	return &Product{Tables: ts}, nil
}

// paperNames lists the paper's algorithms, the columns of Table III.
func paperNames() []sched.Name {
	var out []sched.Name
	for _, a := range sched.All() {
		out = append(out, a.Name)
	}
	return out
}
