package budgetwf_test

import (
	"errors"
	"strings"
	"testing"

	"budgetwf"
)

// TestPublicAPIFlow exercises the documented quickstart flow through
// the facade: generate → plan → replicate.
func TestPublicAPIFlow(t *testing.T) {
	w, err := budgetwf.Generate(budgetwf.Montage, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithSigmaRatio(0.5)
	p := budgetwf.DefaultPlatform()
	anchors, err := budgetwf.ComputeAnchors(w, p)
	if err != nil {
		t.Fatal(err)
	}
	budget := 1.5 * anchors.CheapCost
	s, err := budgetwf.HeftBudg(w, p, budget)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := budgetwf.ReplicateBudget(w, p, s, 10, 42, budget)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan.N != 10 || rep.Makespan.Mean <= 0 {
		t.Errorf("replication summary %+v", rep.Makespan)
	}
	if rep.ValidFrac < 0.9 {
		t.Errorf("only %.0f%% of runs within budget", 100*rep.ValidFrac)
	}
}

func TestHandBuiltWorkflowThroughFacade(t *testing.T) {
	w := budgetwf.NewWorkflow("hand")
	a := w.AddTask("a", budgetwf.Dist{Mean: 50e9, Sigma: 5e9})
	b := w.AddTask("b", budgetwf.Dist{Mean: 30e9, Sigma: 3e9})
	w.MustAddEdge(a, b, 100e6)
	if err := w.SetExternalIO(a, 1e9, 0); err != nil {
		t.Fatal(err)
	}
	p := budgetwf.DefaultPlatform()
	s, err := budgetwf.MinMinBudg(w, p, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := budgetwf.Simulate(w, p, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || res.TotalCost <= 0 {
		t.Error("degenerate simulation result")
	}
	det, err := budgetwf.SimulateDeterministic(w, p, s)
	if err != nil {
		t.Fatal(err)
	}
	if det.TotalCost > 1.0 {
		t.Errorf("deterministic cost %.4f exceeded the $1 budget", det.TotalCost)
	}
}

func TestAlgorithmsRegistryThroughFacade(t *testing.T) {
	names := budgetwf.Algorithms()
	if len(names) != 9 {
		t.Fatalf("%d algorithms, want 9", len(names))
	}
	w, err := budgetwf.Generate(budgetwf.ForkJoin, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithSigmaRatio(0.25)
	p := budgetwf.DefaultPlatform()
	for _, name := range names {
		if _, err := budgetwf.ScheduleWith(name, w, p, 5.0); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := budgetwf.ScheduleWith("bogus", w, p, 5.0); err == nil {
		t.Error("bogus algorithm accepted")
	}
}

func TestWorkflowFileRoundTripThroughFacade(t *testing.T) {
	w, err := budgetwf.Generate(budgetwf.CyberShake, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/w.json"
	if err := w.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := budgetwf.LoadWorkflow(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTasks() != w.NumTasks() || got.NumEdges() != w.NumEdges() {
		t.Error("round trip changed the workflow")
	}
}

func TestCheapestScheduleThroughFacade(t *testing.T) {
	w, err := budgetwf.Generate(budgetwf.Chain, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithSigmaRatio(0.5)
	p := budgetwf.DefaultPlatform()
	s, err := budgetwf.CheapestSchedule(w, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVMs() != 1 {
		t.Errorf("cheapest schedule uses %d VMs", s.NumVMs())
	}
	res, err := budgetwf.SimulateDeterministic(w, p, s)
	if err != nil {
		t.Fatal(err)
	}
	// A chain on one VM has zero data motion: every task back to back.
	for i := 1; i < w.NumTasks(); i++ {
		prev := res.Tasks[i-1].Finish
		cur := res.Tasks[i].ComputeStart
		if cur-prev > 1e-9 {
			t.Errorf("gap between chained tasks: %v → %v", prev, cur)
		}
	}
}

func TestReplicateWithoutBudget(t *testing.T) {
	w, err := budgetwf.Generate(budgetwf.Chain, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithSigmaRatio(0.25)
	p := budgetwf.DefaultPlatform()
	s, err := budgetwf.MinMin(w, p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := budgetwf.Replicate(w, p, s, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Budget 0 disables the validity accounting: everything counts.
	if rep.ValidFrac != 1 || rep.Budget != 0 {
		t.Errorf("replication %+v", rep)
	}
	if rep.Cost.N != 6 {
		t.Errorf("n = %d", rep.Cost.N)
	}
	// Nothing to summarize is an error, not an empty Replication.
	for _, n := range []int{0, -2} {
		var invalid *budgetwf.FaultFieldError
		if rep, err := budgetwf.ReplicateBudget(w, p, s, n, 9, 1); !errors.As(err, &invalid) || invalid.Field != "replications" || rep != nil {
			t.Errorf("ReplicateBudget(n=%d) = %+v, %v; want a replications error", n, rep, err)
		}
		if st, err := budgetwf.ReplicateObjective(w, p, s, n, 9, budgetwf.Objective{Budget: 1}); err == nil || st != nil {
			t.Errorf("ReplicateObjective(n=%d) = %+v, %v; want an error", n, st, err)
		}
	}
}

func TestWriteTablesFacade(t *testing.T) {
	tables, err := budgetwf.SigmaSweep(budgetwf.FigureConfig{
		N: 30, SigmaRatio: 0.5, Instances: 1, Reps: 2, GridK: 2, Workers: 2,
	}, budgetwf.Montage, budgetwf.AlgHeftBudg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := budgetwf.WriteTables(&b, tables); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Sigma sweep") {
		t.Error("rendered tables missing title")
	}
	if got := len(budgetwf.PaperWorkflowTypes()); got != 3 {
		t.Errorf("%d paper types", got)
	}
}
