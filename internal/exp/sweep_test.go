package exp

import (
	"context"
	"strings"
	"testing"

	"budgetwf/internal/platform"
	"budgetwf/internal/sched"
	"budgetwf/internal/wfgen"
)

func quickScenario(t wfgen.Type) Scenario {
	return Scenario{Type: t, N: 30, SigmaRatio: 0.5, Instances: 2, Reps: 4, Workers: 2}
}

func TestRunSweepShapes(t *testing.T) {
	algs := []sched.Algorithm{
		mustAlg(t, sched.NameHeft),
		mustAlg(t, sched.NameHeftBudg),
	}
	res, err := RunSweep(quickScenario(wfgen.Montage), algs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("want 2 series, got %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != 5 {
			t.Fatalf("%s: want 5 points, got %d", s.Algorithm, len(s.Points))
		}
		for i, p := range s.Points {
			if p.Makespan.N != 2*4 {
				t.Errorf("%s point %d: want 8 observations, got %d", s.Algorithm, i, p.Makespan.N)
			}
			if p.Makespan.Mean <= 0 || p.Cost.Mean <= 0 {
				t.Errorf("%s point %d: non-positive aggregates", s.Algorithm, i)
			}
		}
	}
	if res.MinCostMakespan <= 0 || res.MinCostBudget <= 0 {
		t.Error("missing min_cost anchors")
	}

	// The budget-aware makespan must not increase (materially) with
	// budget at the extremes: the largest budget's mean makespan must
	// be at most the smallest budget's.
	hb := res.Series[1].Points
	lo, hi := hb[0].Makespan.Mean, hb[len(hb)-1].Makespan.Mean
	if hi > lo*1.05 {
		t.Errorf("HEFTBUDG makespan grew with budget: %.1f at min vs %.1f at max", lo, hi)
	}
}

func TestRunSweepDeterminism(t *testing.T) {
	algs := []sched.Algorithm{mustAlg(t, sched.NameMinMinBudg)}
	a, err := RunSweep(quickScenario(wfgen.CyberShake), algs, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSweep(quickScenario(wfgen.CyberShake), algs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Series[0].Points {
		pa, pb := a.Series[0].Points[i], b.Series[0].Points[i]
		if pa.Makespan.Mean != pb.Makespan.Mean || pa.Cost.Mean != pb.Cost.Mean {
			t.Errorf("point %d differs across identical runs: %v vs %v", i, pa.Makespan.Mean, pb.Makespan.Mean)
		}
	}
}

func TestBudgetRespectedAtHighBudget(t *testing.T) {
	for _, typ := range wfgen.AllPaperTypes() {
		res, err := RunSweep(quickScenario(typ), []sched.Algorithm{mustAlg(t, sched.NameHeftBudg)}, 4)
		if err != nil {
			t.Fatal(err)
		}
		pts := res.Series[0].Points
		last := pts[len(pts)-1]
		if last.ValidFrac < 0.95 {
			t.Errorf("%s: only %.0f%% of high-budget executions respected the budget", typ, 100*last.ValidFrac)
		}
	}
}

func TestSweepTableRendering(t *testing.T) {
	res, err := RunSweep(quickScenario(wfgen.Ligo), []sched.Algorithm{mustAlg(t, sched.NameHeftBudg)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	tab := SweepTable("test", res)
	var ascii, csv strings.Builder
	if err := tab.WriteASCII(&ascii); err != nil {
		t.Fatal(err)
	}
	if err := tab.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ascii.String(), "heftbudg") || !strings.Contains(csv.String(), "heftbudg") {
		t.Error("rendered tables missing algorithm name")
	}
	wantRows := 3 + 1 // grid points + min_cost reference
	if len(tab.Rows) != wantRows {
		t.Errorf("want %d rows, got %d", wantRows, len(tab.Rows))
	}
}

func TestBudgetGrid(t *testing.T) {
	g := BudgetGrid(1, 3, 5)
	want := []float64{1, 1.5, 2, 2.5, 3}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("grid %v, want %v", g, want)
		}
	}
	if got := BudgetGrid(2, 1, 5); len(got) != 1 || got[0] != 2 {
		t.Errorf("degenerate grid: %v", got)
	}
}

func TestCheapestScheduleSingleVM(t *testing.T) {
	w := wfgen.MustGenerate(wfgen.Montage, 30, 0)
	p := platform.Default()
	s, err := CheapestSchedule(w, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVMs() != 1 {
		t.Fatalf("cheapest schedule uses %d VMs", s.NumVMs())
	}
	if s.VMCats[0] != p.Cheapest() {
		t.Errorf("cheapest schedule uses category %d", s.VMCats[0])
	}
	if err := s.Validate(w, p.NumCategories()); err != nil {
		t.Fatal(err)
	}
}

func mustAlg(t *testing.T, n sched.Name) sched.Algorithm {
	t.Helper()
	a, err := sched.ByName(n)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRunSweepWorkerCountInvariance(t *testing.T) {
	// The parallel harness must produce bit-identical aggregates
	// regardless of worker count: cells own decorrelated RNG streams
	// derived from (instance, budget, algorithm), never from
	// scheduling order.
	algs := []sched.Algorithm{mustAlg(t, sched.NameHeftBudg), mustAlg(t, sched.NameBDT)}
	base := quickScenario(wfgen.Montage)
	one := base
	one.Workers = 1
	many := base
	many.Workers = 8
	a, err := RunSweep(one, algs, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSweep(many, algs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for si := range a.Series {
		for pi := range a.Series[si].Points {
			pa, pb := a.Series[si].Points[pi], b.Series[si].Points[pi]
			if pa.Makespan.Mean != pb.Makespan.Mean || pa.Cost.Mean != pb.Cost.Mean ||
				pa.ValidFrac != pb.ValidFrac || pa.NumVMs.Mean != pb.NumVMs.Mean {
				t.Fatalf("series %d point %d differs between 1 and 8 workers", si, pi)
			}
		}
	}
}

// TestAnalyticSweepShapes: estimator=analytic must produce a result
// with exactly the MC path's shape — same series, points, observation
// counts — while replacing replications with quantile pseudo-samples.
func TestAnalyticSweepShapes(t *testing.T) {
	sc := quickScenario(wfgen.Montage)
	sc.Estimator = EstimatorAnalytic
	algs := []sched.Algorithm{mustAlg(t, sched.NameHeftBudg)}
	res, err := RunSweep(sc, algs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) != 5 {
		t.Fatalf("unexpected shape: %d series", len(res.Series))
	}
	for i, p := range res.Series[0].Points {
		if p.Makespan.N != 2*4 {
			t.Errorf("point %d: want 8 pseudo-samples, got %d", i, p.Makespan.N)
		}
		if p.Makespan.Mean <= 0 || p.Cost.Mean <= 0 {
			t.Errorf("point %d: non-positive aggregates", i)
		}
		if p.ValidFrac < 0 || p.ValidFrac > 1 {
			t.Errorf("point %d: ValidFrac %v out of range", i, p.ValidFrac)
		}
	}
}

// TestAnalyticSweepTracksMC: the analytic sweep's mean-makespan curve
// must track a higher-replication MC sweep of the same scenario.
func TestAnalyticSweepTracksMC(t *testing.T) {
	mc := quickScenario(wfgen.Montage)
	mc.Reps = 200
	algs := []sched.Algorithm{mustAlg(t, sched.NameHeftBudg)}
	ref, err := RunSweep(mc, algs, 4)
	if err != nil {
		t.Fatal(err)
	}
	an := quickScenario(wfgen.Montage)
	an.Estimator = EstimatorAnalytic
	got, err := RunSweep(an, algs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Series[0].Points {
		r, g := ref.Series[0].Points[i], got.Series[0].Points[i]
		if rel := abs(g.Makespan.Mean-r.Makespan.Mean) / r.Makespan.Mean; rel > 0.05 {
			t.Errorf("point %d: analytic makespan mean %.1f vs MC %.1f (%.1f%%)",
				i, g.Makespan.Mean, r.Makespan.Mean, 100*rel)
		}
		if rel := abs(g.Cost.Mean-r.Cost.Mean) / r.Cost.Mean; rel > 0.05 {
			t.Errorf("point %d: analytic cost mean %.4f vs MC %.4f (%.1f%%)",
				i, g.Cost.Mean, r.Cost.Mean, 100*rel)
		}
	}
}

// TestAnalyticSweepShardIdentity: running the analytic cells as units
// and merging must be bit-identical to the monolithic run — the
// pseudo-samples depend only on (rep, Reps).
func TestAnalyticSweepShardIdentity(t *testing.T) {
	sc := quickScenario(wfgen.CyberShake)
	sc.Estimator = EstimatorAnalytic
	algs := []sched.Algorithm{mustAlg(t, sched.NameHeftBudg)}
	mono, err := RunSweep(sc, algs, 3)
	if err != nil {
		t.Fatal(err)
	}
	sweep := mustSweep(t, sc, algs, 3)
	units, err := sweep.Run(context.Background(), sc.Workers, 0, sweep.Cells())
	if err != nil {
		t.Fatal(err)
	}
	merged, err := sweep.Merge(units)
	if err != nil {
		t.Fatal(err)
	}
	for si := range mono.Series {
		for pi := range mono.Series[si].Points {
			a, b := mono.Series[si].Points[pi], merged.Series[si].Points[pi]
			if a.Makespan != b.Makespan || a.Cost != b.Cost || a.ValidFrac != b.ValidFrac {
				t.Fatalf("series %d point %d: sharded run diverges from monolithic", si, pi)
			}
		}
	}
}

// TestUnknownEstimatorRejected: a typo'd estimator must fail fast.
func TestUnknownEstimatorRejected(t *testing.T) {
	sc := quickScenario(wfgen.Montage)
	sc.Estimator = "montecarlo"
	if _, err := RunSweep(sc, []sched.Algorithm{mustAlg(t, sched.NameHeftBudg)}, 3); err == nil || !strings.Contains(err.Error(), "estimator") {
		t.Fatalf("want estimator error, got %v", err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
