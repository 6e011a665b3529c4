package exp

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/sched"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// syntheticSweepInputs builds a prepared sweep and a unit slice in the
// cell enumeration order, with per-cell values derived from the cell
// coordinates so the aggregation can be checked exactly.
func syntheticSweepInputs(numAlgs, instances, gridK int) (*Sweep, []Unit) {
	algs := make([]sched.Algorithm, numAlgs)
	for ai := range algs {
		algs[ai] = sched.Algorithm{Name: sched.Name(fmt.Sprintf("alg%d", ai))}
	}
	p := &Sweep{sc: Scenario{Instances: instances}, algs: algs, gridK: gridK, insts: make([]instance, instances), common: make([]float64, gridK)}
	for i := range p.insts {
		p.insts[i].a = &Anchors{CheapCost: 10 + float64(i)}
	}
	for b := range p.common {
		p.common[b] = 1 + float64(b)
	}
	units := make([]Unit, numAlgs*instances*gridK)
	for ai := 0; ai < numAlgs; ai++ {
		for i := 0; i < instances; i++ {
			for b := 0; b < gridK; b++ {
				base := float64(ai + i + b)
				ci := cellIndex(ai, i, b, instances, gridK)
				units[ci] = Unit{
					Unit:        ci,
					NumVMs:      float64(ai + 1),
					PlanSeconds: 0.5,
					Batch: Batch{
						Makespans: []float64{base, base + 2},
						Costs:     []float64{base, base + 1},
						Reps:      2,
						Completed: 2,
						InBudget:  1,
					},
				}
			}
		}
	}
	return p, units
}

func TestAggregateCellsValues(t *testing.T) {
	const numAlgs, instances, gridK = 3, 4, 5
	p, units := syntheticSweepInputs(numAlgs, instances, gridK)
	out := p.aggregate(units)
	if len(out.Series) != numAlgs {
		t.Fatalf("series = %d, want %d", len(out.Series), numAlgs)
	}
	for ai, series := range out.Series {
		if series.Algorithm != p.algs[ai].Name {
			t.Errorf("series %d is %q, want %q", ai, series.Algorithm, p.algs[ai].Name)
		}
		if len(series.Points) != gridK {
			t.Fatalf("series %d has %d points, want %d", ai, len(series.Points), gridK)
		}
		for b, pt := range series.Points {
			if pt.Factor != p.common[b] {
				t.Errorf("alg %d point %d factor = %v, want %v", ai, b, pt.Factor, p.common[b])
			}
			// Each cell contributed 2 makespans with mean ai+i+b+1.
			wantMean := 0.0
			wantBudget := 0.0
			for i := 0; i < instances; i++ {
				wantMean += (float64(ai+i+b) + 1) / float64(instances)
				wantBudget += p.common[b] * p.insts[i].a.CheapCost / float64(instances)
			}
			if diff := pt.Makespan.Mean - wantMean; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("alg %d point %d makespan mean = %v, want %v", ai, b, pt.Makespan.Mean, wantMean)
			}
			if diff := pt.Budget - wantBudget; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("alg %d point %d budget = %v, want %v", ai, b, pt.Budget, wantBudget)
			}
			// Each cell had 1 valid of 2 replications.
			if pt.ValidFrac != 0.5 {
				t.Errorf("alg %d point %d validFrac = %v, want 0.5", ai, b, pt.ValidFrac)
			}
			if pt.PlanTime.Mean != 0.5 {
				t.Errorf("alg %d point %d planTime mean = %v, want 0.5", ai, b, pt.PlanTime.Mean)
			}
		}
	}
}

// TestAggregateCellsPropagatesCellError: units carry no error — a
// failed cell never reaches the aggregator — so the property is checked
// where it now lives: a sweep whose planner fails in one cell returns
// that cell's error, naming its coordinates and wrapping the cause.
func TestAggregateCellsPropagatesCellError(t *testing.T) {
	const instances, gridK = 3, 4
	heft := mustAlg(t, sched.NameHeft)
	boom := errors.New("boom")
	calls := 0 // Workers is 1: alg1's cells run one after another, in cell order
	failing := sched.Algorithm{Name: "alg1", Plan: func(w *wf.Workflow, p *platform.Platform, budget float64) (*plan.Schedule, error) {
		calls++
		if calls == cellIndex(0, 2, 3, instances, gridK)+1 {
			return nil, boom
		}
		return heft.Plan(w, p, budget)
	}}
	algs := []sched.Algorithm{{Name: "alg0", Plan: heft.Plan}, failing}
	sc := Scenario{Type: wfgen.Chain, N: 6, Instances: instances, Reps: 1, Workers: 1}
	_, err := RunSweep(sc, algs, gridK)
	if !errors.Is(err, boom) {
		t.Fatalf("cell error not propagated: %v", err)
	}
	if want := "alg1 instance 2 budget 3"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not identify the cell (%s)", err, want)
	}
}

// TestAggregateCellsLinearInCells is the regression test for the
// O(cells²) aggregation: the previous implementation rescanned the
// whole results slice inside the (algorithm × instance × budget)
// triple loop, which on this 80 000-cell sweep costs ~6×10⁹ scan steps
// (tens of seconds); the indexed aggregation does one pass and
// finishes in milliseconds. The generous wall-clock bound fails the
// quadratic code on any machine while staying far above CI noise.
func TestAggregateCellsLinearInCells(t *testing.T) {
	if testing.Short() {
		t.Skip("large synthetic sweep")
	}
	const numAlgs, instances, gridK = 10, 100, 80 // 80 000 cells
	p, units := syntheticSweepInputs(numAlgs, instances, gridK)
	start := time.Now()
	out := p.aggregate(units)
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("aggregating %d cells took %v; aggregation has gone quadratic", len(units), elapsed)
	}
	if len(out.Series) != numAlgs || len(out.Series[0].Points) != gridK {
		t.Fatalf("unexpected shape: %d series × %d points", len(out.Series), len(out.Series[0].Points))
	}
}
