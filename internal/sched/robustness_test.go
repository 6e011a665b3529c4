package sched

import (
	"math"
	"testing"

	"budgetwf/internal/platform"
	"budgetwf/internal/sim"
	"budgetwf/internal/stoch"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// TestSingleTaskWorkflowAllAlgorithms: the degenerate single-task DAG
// must flow through every algorithm and simulate.
func TestSingleTaskWorkflowAllAlgorithms(t *testing.T) {
	p := platform.Default()
	w := wf.New("one")
	id := w.AddTask("only", stoch.Dist{Mean: 100e9, Sigma: 10e9})
	if err := w.SetExternalIO(id, 1e9, 1e8); err != nil {
		t.Fatal(err)
	}
	for _, alg := range All() {
		s, err := alg.Plan(w, p, 1)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name, err)
		}
		if s.NumVMs() != 1 {
			t.Errorf("%s: %d VMs for one task", alg.Name, s.NumVMs())
		}
		if _, err := sim.RunDeterministic(w, p, s); err != nil {
			t.Fatalf("%s: %v", alg.Name, err)
		}
	}
}

// TestZeroSizeEdgesEverywhere: pure control dependencies (no data)
// must not break EFT/cost computation.
func TestZeroSizeEdgesEverywhere(t *testing.T) {
	p := platform.Default()
	w := wf.New("control")
	var prev wf.TaskID = -1
	for i := 0; i < 6; i++ {
		id := w.AddTask("t", stoch.Dist{Mean: 50e9, Sigma: 5e9})
		if prev >= 0 {
			w.MustAddEdge(prev, id, 0)
		}
		prev = id
	}
	for _, alg := range All() {
		s, err := alg.Plan(w, p, 10)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name, err)
		}
		r, err := sim.RunDeterministic(w, p, s)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name, err)
		}
		if r.Makespan <= 0 {
			t.Errorf("%s: makespan %v", alg.Name, r.Makespan)
		}
	}
}

// TestSingleCategoryPlatform: with one VM type, the budget only
// controls the degree of parallelism.
func TestSingleCategoryPlatform(t *testing.T) {
	p := &platform.Platform{
		Categories: []platform.Category{{Name: "only", Speed: 1e9, CostPerSec: 1e-5, InitCost: 0.0001}},
		Bandwidth:  125e6,
	}
	w := paperInstance(t, wfgen.Montage, 30, 0)
	for _, alg := range All() {
		s, err := alg.Plan(w, p, 10)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name, err)
		}
		if err := s.Validate(w, 1); err != nil {
			t.Fatalf("%s: %v", alg.Name, err)
		}
	}
}

// TestExtremeSigma: σ ten times the mean must not destabilize
// planning or simulation (the sampler truncates).
func TestExtremeSigma(t *testing.T) {
	p := platform.Default()
	w := wfgen.MustGenerate(wfgen.ForkJoin, 10, 0)
	c := w.Clone()
	scaled := c.WithSigmaRatio(10)
	s, err := HeftBudg(scaled, p, 100)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.RunDeterministic(scaled, p, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(r.Makespan) || math.IsInf(r.Makespan, 0) {
		t.Errorf("unstable makespan %v", r.Makespan)
	}
}

// TestNaNBudgetRejected: a NaN budget is a caller bug and must be
// reported, not propagated into the shares.
func TestNaNBudgetRejected(t *testing.T) {
	p := platform.Default()
	w := paperInstance(t, wfgen.Montage, 30, 0)
	if _, err := HeftBudg(w, p, math.NaN()); err == nil {
		t.Error("NaN budget accepted")
	}
	if _, err := mustByName(NameMinMinBudg).Plan(w, p, math.NaN()); err == nil {
		t.Error("NaN budget accepted by MIN-MINBUDG")
	}
}

// TestInfiniteBudgetWorks: +Inf is a legitimate "no constraint" value
// and must reproduce the baseline schedules.
func TestInfiniteBudgetWorks(t *testing.T) {
	p := platform.Default()
	w := paperInstance(t, wfgen.Ligo, 30, 0)
	inf, err := HeftBudg(w, p, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	base, err := Heft(w, p)
	if err != nil {
		t.Fatal(err)
	}
	for task := range inf.TaskVM {
		if inf.TaskVM[task] != base.TaskVM[task] {
			t.Fatalf("infinite budget diverged from baseline at task %d", task)
		}
	}
}

// TestDisconnectedWorkflow: several independent components (LIGO's
// large-instance shape taken to the extreme) schedule fine.
func TestDisconnectedWorkflow(t *testing.T) {
	p := platform.Default()
	w := wfgen.MustGenerate(wfgen.BagOfTasks, 20, 0).WithSigmaRatio(0.5)
	for _, alg := range All() {
		s, err := alg.Plan(w, p, 5)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name, err)
		}
		if _, err := sim.RunDeterministic(w, p, s); err != nil {
			t.Fatalf("%s: %v", alg.Name, err)
		}
	}
}
