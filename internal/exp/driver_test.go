package exp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/sched"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// TestFailingCellStopsSweep: a planner that fails on cell 0 of a
// 200-cell grid stops the sweep — far fewer than 200 plans run — and
// the single-process and the units entry point report the same error.
func TestFailingCellStopsSweep(t *testing.T) {
	heft := mustAlg(t, sched.NameHeft)
	boom := errors.New("boom")
	var plans atomic.Int64
	alg := sched.Algorithm{Name: "counting", Plan: func(w *wf.Workflow, p *platform.Platform, budget float64) (*plan.Schedule, error) {
		if plans.Add(1) == 1 {
			return nil, boom
		}
		return heft.Plan(w, p, budget)
	}}
	algs := []sched.Algorithm{alg}
	// Workers is 1, so the first plan is cell 0's.
	sc := Scenario{Type: wfgen.Chain, N: 6, Instances: 10, Reps: 1, Workers: 1}
	const gridK = 20
	sweep, err := NewSweep(sc, algs, gridK)
	if err != nil {
		t.Fatal(err)
	}
	if got := sweep.Cells(); got != 200 {
		t.Fatalf("grid has %d cells, want 200", got)
	}

	_, monoErr := RunSweepCtx(context.Background(), sc, algs, gridK)
	if !errors.Is(monoErr, boom) {
		t.Fatalf("monolithic sweep: %v", monoErr)
	}
	if n := plans.Load(); n > 10 {
		t.Errorf("monolithic sweep planned %d cells after cell 0 failed", n)
	}
	plans.Store(0)
	_, unitsErr := sweep.Run(context.Background(), 1, 0, 200)
	if n := plans.Load(); n > 10 {
		t.Errorf("units run planned %d cells after cell 0 failed", n)
	}
	if unitsErr == nil || unitsErr.Error() != monoErr.Error() {
		t.Errorf("units error %q, monolithic error %q", unitsErr, monoErr)
	}
	if want := "exp: counting instance 0 budget 0: boom"; monoErr.Error() != want {
		t.Errorf("error %q, want %q", monoErr, want)
	}
}

// TestRunCellsErrorPolicy: with several failing cells and a racing
// pool, the error is always the lowest-numbered failed cell's; a
// cancelled context surfaces as its own error.
func TestRunCellsErrorPolicy(t *testing.T) {
	kernel := func(_ context.Context, c int) (int, error) {
		if c == 3 || c == 4 || c == 9 {
			return 0, fmt.Errorf("cell %d", c)
		}
		return c * c, nil
	}
	for i := 0; i < 50; i++ {
		if _, err := runCells(context.Background(), 4, 0, 40, kernel); err == nil || err.Error() != "cell 3" {
			t.Fatalf("run %d: error %v, want cell 3", i, err)
		}
	}
	got, err := runCells(context.Background(), 4, 5, 9, kernel)
	if err != nil || fmt.Sprint(got) != "[25 36 49 64]" {
		t.Fatalf("range [5, 9): %v, %v", got, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, err = runCells(ctx, 2, 0, 10, func(context.Context, int) (int, error) { ran = true; return 0, nil })
	if !errors.Is(err, ctx.Err()) || ran {
		t.Fatalf("cancelled run: err %v, kernel ran %v", err, ran)
	}
}

// TestOrderUnits: the coverage check accepts exactly the cells of the
// range, each once, in any order, and refuses payloads that would
// aggregate wrongly.
func TestOrderUnits(t *testing.T) {
	sweepUnit := func(c, reps int) Unit {
		return Unit{Unit: c, Batch: Batch{Reps: reps, Completed: reps, Makespans: make([]float64, reps), Costs: make([]float64, reps)}}
	}
	got, err := OrderUnits([]Unit{sweepUnit(6, 2), sweepUnit(4, 2), sweepUnit(5, 2)}, 4, 7, 2)
	if err != nil || got[0].Unit != 4 || got[1].Unit != 5 || got[2].Unit != 6 {
		t.Fatalf("shuffled units: %v, %v", got, err)
	}
	short := sweepUnit(5, 2)
	short.Makespans = short.Makespans[:1]
	for name, units := range map[string][]Unit{
		"shifted":   {sweepUnit(5, 2), sweepUnit(6, 2), sweepUnit(7, 2)},
		"duplicate": {sweepUnit(4, 2), sweepUnit(4, 2), sweepUnit(6, 2)},
		"count":     {sweepUnit(4, 2), sweepUnit(5, 2)},
		"truncated": {sweepUnit(4, 2), short, sweepUnit(6, 2)},
		"reps":      {sweepUnit(4, 3), sweepUnit(5, 3), sweepUnit(6, 3)},
	} {
		if _, err := OrderUnits(units, 4, 7, 2); err == nil || !strings.HasPrefix(err.Error(), "exp: ") {
			t.Errorf("%s: accepted (err %v)", name, err)
		}
	}

	ok := Unit{Unit: 0, Batch: Batch{Reps: 3, Completed: 2, Makespans: make([]float64, 2), Costs: make([]float64, 3)}}
	if _, err := OrderUnits([]Unit{ok}, 0, 1, 3); err != nil {
		t.Fatalf("consistent fault unit refused: %v", err)
	}
	for name, mutate := range map[string]func(*Unit){
		"reps":      func(u *Unit) { u.Reps = 2 },
		"costs":     func(u *Unit) { u.Costs = u.Costs[:2] },
		"completed": func(u *Unit) { u.Completed = 3 },
		"makespans": func(u *Unit) { u.Makespans = nil },
	} {
		u := ok
		mutate(&u)
		if _, err := OrderUnits([]Unit{u}, 0, 1, 3); err == nil {
			t.Errorf("fault unit with inconsistent %s accepted", name)
		}
	}
}

// TestFaultAggregateIndexing pins the fault aggregator's direct cell
// addressing: cells are instance-major, and each rate folds its
// instances in order.
func TestFaultAggregateIndexing(t *testing.T) {
	const instances, rates = 3, 4
	p := &FaultSweep{sc: FaultScenario{Scenario: Scenario{Instances: instances}, Rates: make([]float64, rates)}}
	units := make([]Unit, instances*rates)
	for i := 0; i < instances; i++ {
		for ri := 0; ri < rates; ri++ {
			v := float64(10*ri + i)
			units[i*rates+ri] = Unit{Unit: i*rates + ri, Batch: Batch{Reps: 1, Completed: 1, Makespans: []float64{v}, Costs: []float64{v}, Crashes: ri}}
		}
	}
	out := p.aggregate(units)
	for ri, pt := range out.Points {
		if want := float64(10*ri + 1); pt.Makespan.Mean != want || pt.Cost.Median != want || pt.Crashes != float64(ri) {
			t.Errorf("rate %d: makespan mean %v, cost median %v, crashes %v; want %v, %v, %d",
				ri, pt.Makespan.Mean, pt.Cost.Median, pt.Crashes, want, want, ri)
		}
	}
}
