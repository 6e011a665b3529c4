// Benchmarks regenerating every table and figure of the paper's
// evaluation (§V). Each BenchmarkFigure*/BenchmarkTable* target runs
// the same harness code as cmd/paperfigs, at a reduced scale suitable
// for testing.B iteration counts; run cmd/paperfigs (without -quick)
// for the full-scale reproduction recorded in EXPERIMENTS.md.
//
//	go test -bench=. -benchmem
package budgetwf_test

import (
	"fmt"
	"testing"

	"budgetwf"
)

// benchCfg is the reduced scale shared by the figure benchmarks.
func benchCfg() budgetwf.FigureConfig {
	return budgetwf.FigureConfig{N: 30, SigmaRatio: 0.5, Instances: 1, Reps: 3, GridK: 4, Workers: 2}
}

// BenchmarkFigure1 regenerates Figure 1 (MIN-MIN, HEFT, MIN-MINBUDG,
// HEFTBUDG over the budget grid, all three workflow families).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := budgetwf.Figure(1, benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2 (HEFTBUDG+ and HEFTBUDG+INV
// against HEFT and HEFTBUDG).
func BenchmarkFigure2(b *testing.B) {
	cfg := benchCfg()
	cfg.GridK = 2 // the refined variants are ~100× costlier to plan
	for i := 0; i < b.N; i++ {
		if _, err := budgetwf.Figure(2, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3 (budget-aware variants vs the
// extended BDT and CG competitors, including validity percentages).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := budgetwf.Figure(3, benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4 (refined variants vs CG+).
func BenchmarkFigure4(b *testing.B) {
	cfg := benchCfg()
	cfg.GridK = 2
	for i := 0; i < b.N; i++ {
		if _, err := budgetwf.Figure(4, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3a is Table III(a): time to compute one schedule for a
// 90-task MONTAGE workflow, per algorithm, at a medium budget. The
// per-op time IS the table cell.
func BenchmarkTable3a(b *testing.B) {
	w, err := budgetwf.Generate(budgetwf.Montage, 90, 0)
	if err != nil {
		b.Fatal(err)
	}
	w = w.WithSigmaRatio(0.5)
	p := budgetwf.DefaultPlatform()
	anchors, err := budgetwf.ComputeAnchors(w, p)
	if err != nil {
		b.Fatal(err)
	}
	budget := (anchors.CheapCost + anchors.High) / 2
	for _, name := range budgetwf.Algorithms() {
		b.Run(string(name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := budgetwf.ScheduleWith(name, w, p, budget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3b is Table III(b): scheduling time versus workflow
// size (30/60/90/400 tasks) at a high budget. The refined variants and
// CG+ are benchmarked only up to 90 tasks, matching the paper's remark
// that their cost "limits their usage to smaller-size workflows".
func BenchmarkTable3b(b *testing.B) {
	p := budgetwf.DefaultPlatform()
	for _, n := range []int{30, 60, 90, 400} {
		w, err := budgetwf.Generate(budgetwf.Montage, n, 0)
		if err != nil {
			b.Fatal(err)
		}
		w = w.WithSigmaRatio(0.5)
		anchors, err := budgetwf.ComputeAnchors(w, p)
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range budgetwf.Algorithms() {
			expensive := name == budgetwf.AlgHeftBudgPlus || name == budgetwf.AlgHeftBudgPlusInv || name == budgetwf.AlgCGPlus
			if expensive && n > 90 {
				continue
			}
			b.Run(fmt.Sprintf("%s/n%d", name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := budgetwf.ScheduleWith(name, w, p, anchors.High); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSigmaSweep regenerates the extended-version σ-sensitivity
// data (budget sweeps at four uncertainty levels).
func BenchmarkSigmaSweep(b *testing.B) {
	cfg := benchCfg()
	cfg.GridK = 3
	for i := 0; i < b.N; i++ {
		if _, err := budgetwf.SigmaSweep(cfg, budgetwf.Montage, budgetwf.AlgHeftBudg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContentionAblation regenerates the §V-B LIGO anomaly study
// (unbounded datacenter vs a finite aggregate bandwidth).
func BenchmarkContentionAblation(b *testing.B) {
	cfg := benchCfg()
	cfg.GridK = 3
	for i := 0; i < b.N; i++ {
		if _, err := budgetwf.ContentionAblation(cfg, 250e6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulate measures one stochastic discrete-event execution
// of a planned 90-task MONTAGE schedule — the inner loop of every
// experiment (16 500 executions per workflow type in the paper).
func BenchmarkSimulate(b *testing.B) {
	w, err := budgetwf.Generate(budgetwf.Montage, 90, 0)
	if err != nil {
		b.Fatal(err)
	}
	w = w.WithSigmaRatio(0.5)
	p := budgetwf.DefaultPlatform()
	s, err := budgetwf.ScheduleWith(budgetwf.AlgHeft, w, p, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := budgetwf.Simulate(w, p, s, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateContention is BenchmarkSimulate under the fluid
// max-min fair-sharing engine (finite datacenter bandwidth) — the
// ablation's extra cost.
func BenchmarkSimulateContention(b *testing.B) {
	w, err := budgetwf.Generate(budgetwf.Ligo, 90, 0)
	if err != nil {
		b.Fatal(err)
	}
	w = w.WithSigmaRatio(0.5)
	p := budgetwf.DefaultPlatform()
	p.DCBandwidth = 250e6
	s, err := budgetwf.ScheduleWith(budgetwf.AlgHeft, w, p, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := budgetwf.Simulate(w, p, s, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate measures workflow generation, the setup cost of
// every experiment cell.
func BenchmarkGenerate(b *testing.B) {
	for _, typ := range budgetwf.PaperWorkflowTypes() {
		b.Run(string(typ), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := budgetwf.Generate(typ, 90, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOnlineExecution measures the monitored executor against the
// plain simulator on the same realized weights.
func BenchmarkOnlineExecution(b *testing.B) {
	w, err := budgetwf.Generate(budgetwf.Montage, 90, 0)
	if err != nil {
		b.Fatal(err)
	}
	w = w.WithSigmaRatio(0.5)
	p := budgetwf.DefaultPlatform()
	s, err := budgetwf.ScheduleWith(budgetwf.AlgHeftBudg, w, p, 0.07)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("static", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := budgetwf.Simulate(w, p, s, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("monitored", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := budgetwf.ExecuteOnline(w, p, s, uint64(i), budgetwf.DefaultOnlinePolicy(0.07)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
