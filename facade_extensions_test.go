package budgetwf_test

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"budgetwf"
	"budgetwf/internal/exp"
	"budgetwf/internal/rng"
	"budgetwf/internal/stats"
)

const testDAX = `<adag name="pair">
  <job id="a" name="first" runtime="50">
    <uses file="in" link="input" size="1000000"/>
    <uses file="mid" link="output" size="500000"/>
  </job>
  <job id="b" name="second" runtime="30">
    <uses file="mid" link="input" size="500000"/>
    <uses file="out" link="output" size="100000"/>
  </job>
  <child ref="b"><parent ref="a"/></child>
</adag>`

func TestLoadDAXThroughFacade(t *testing.T) {
	path := t.TempDir() + "/w.dax"
	if err := os.WriteFile(path, []byte(testDAX), 0o644); err != nil {
		t.Fatal(err)
	}
	// LoadWorkflow dispatches on the extension.
	w, err := budgetwf.LoadWorkflow(path)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumTasks() != 2 || w.NumEdges() != 1 {
		t.Errorf("%d tasks, %d edges", w.NumTasks(), w.NumEdges())
	}
}

func TestExtendedFamiliesThroughFacade(t *testing.T) {
	for _, typ := range []budgetwf.WorkflowType{budgetwf.Epigenomics, budgetwf.Sipht} {
		w, err := budgetwf.Generate(typ, 30, 0)
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		w = w.WithSigmaRatio(0.5)
		s, err := budgetwf.ScheduleWith(budgetwf.AlgHeftBudg, w, budgetwf.DefaultPlatform(), 10)
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if _, err := budgetwf.Simulate(w, budgetwf.DefaultPlatform(), s, 1); err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
	}
}

func TestReplicateObjective(t *testing.T) {
	w, err := budgetwf.Generate(budgetwf.Montage, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithSigmaRatio(0.25)
	p := budgetwf.DefaultPlatform()
	s, err := budgetwf.ScheduleWith(budgetwf.AlgHeft, w, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Unmeetable deadline, generous budget.
	stats, err := budgetwf.ReplicateObjective(w, p, s, 8, 3, budgetwf.Objective{Deadline: 1, Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 8 || stats.DeadlineMet != 0 || stats.BudgetMet != 8 || stats.BothMet != 0 {
		t.Errorf("objective stats %+v", stats)
	}
}

func TestExecuteOnlineThroughFacade(t *testing.T) {
	w, err := budgetwf.Generate(budgetwf.Montage, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithSigmaRatio(0.5)
	p := budgetwf.DefaultPlatform()
	s, err := budgetwf.ScheduleWith(budgetwf.AlgHeftBudg, w, p, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := budgetwf.ExecuteOnline(w, p, s, 1, budgetwf.DefaultOnlinePolicy(0.03))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 || rep.TotalCost <= 0 {
		t.Error("degenerate online report")
	}
	static, monitored, err := budgetwf.ExecuteOnlineOutliers(w, p, s, 2,
		budgetwf.Outliers{Prob: 0.3, Factor: 10}, budgetwf.OnlinePolicy{TimeoutSigma: 2, MaxMigrations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if static.Makespan <= 0 || monitored.Makespan <= 0 {
		t.Error("degenerate outlier comparison")
	}
}

func TestGanttThroughFacadeResult(t *testing.T) {
	w, err := budgetwf.Generate(budgetwf.ForkJoin, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithSigmaRatio(0.25)
	p := budgetwf.DefaultPlatform()
	s, err := budgetwf.ScheduleWith(budgetwf.AlgHeft, w, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := budgetwf.Simulate(w, p, s, 4)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.WriteGantt(&b, w, s, 50); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Gantt:") {
		t.Error("facade gantt rendering failed")
	}
	if u := res.FleetUtilization(); u <= 0 || u > 1 {
		t.Errorf("fleet utilization %v out of (0,1]", u)
	}
}

func TestPlannerOptionsThroughFacade(t *testing.T) {
	w, err := budgetwf.Generate(budgetwf.Montage, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithSigmaRatio(0.5)
	p := budgetwf.DefaultPlatform()
	base, err := budgetwf.HeftBudgWithOptions(w, p, 0.03, budgetwf.PlannerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	noRes, err := budgetwf.HeftBudgWithOptions(w, p, 0.03, budgetwf.PlannerOptions{DisableReserves: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.NumVMs() == 0 || noRes.NumVMs() == 0 {
		t.Error("degenerate schedules")
	}
	if _, err := budgetwf.MinMinBudgWithOptions(w, p, 0.03, budgetwf.PlannerOptions{DisablePot: true}); err != nil {
		t.Fatal(err)
	}
}

func TestPeftThroughFacade(t *testing.T) {
	w, err := budgetwf.Generate(budgetwf.Montage, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithSigmaRatio(0.5)
	p := budgetwf.DefaultPlatform()
	s, err := budgetwf.ScheduleWith(budgetwf.AlgPeft, w, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := budgetwf.Simulate(w, p, s, 1); err != nil {
		t.Fatal(err)
	}
	if got := len(budgetwf.AlgorithmsExtended()); got != 10 {
		t.Errorf("%d extended algorithms, want 10", got)
	}
}

func TestScheduleWithUnknownAlgorithm(t *testing.T) {
	w, err := budgetwf.Generate(budgetwf.Montage, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithSigmaRatio(0.5)
	s, err := budgetwf.ScheduleWith("simulated-annealing-9000", w, budgetwf.DefaultPlatform(), 10)
	if err == nil {
		t.Fatal("ScheduleWith accepted an unknown algorithm")
	}
	if s != nil {
		t.Error("unknown algorithm returned a schedule alongside the error")
	}
	if !strings.Contains(err.Error(), "simulated-annealing-9000") {
		t.Errorf("error %q does not name the offending algorithm", err)
	}
}

func TestAlgorithmsAndScheduleWithAgree(t *testing.T) {
	w, err := budgetwf.Generate(budgetwf.Montage, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithSigmaRatio(0.5)
	p := budgetwf.DefaultPlatform()

	// Every name either listing advertises must be schedulable: the
	// registry the daemon serves from GET /v1/algorithms and the one
	// ScheduleWith dispatches on are the same set.
	core := budgetwf.Algorithms()
	extended := budgetwf.AlgorithmsExtended()
	if len(core) != 9 {
		t.Errorf("Algorithms() lists %d names, want the paper's 9", len(core))
	}
	inExtended := map[budgetwf.AlgorithmName]bool{}
	for _, name := range extended {
		inExtended[name] = true
	}
	for _, name := range core {
		if !inExtended[name] {
			t.Errorf("core algorithm %q missing from AlgorithmsExtended()", name)
		}
	}
	for _, name := range extended {
		s, err := budgetwf.ScheduleWith(name, w, p, 1e6)
		if err != nil {
			t.Errorf("ScheduleWith(%q) rejected an advertised algorithm: %v", name, err)
			continue
		}
		if s.NumVMs() < 1 {
			t.Errorf("ScheduleWith(%q) produced an empty schedule", name)
		}
	}
}

func TestScheduleWithContextCancellation(t *testing.T) {
	w, err := budgetwf.Generate(budgetwf.Montage, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithSigmaRatio(0.5)
	p := budgetwf.DefaultPlatform()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: every planner must bail out
	for _, name := range budgetwf.AlgorithmsExtended() {
		if _, err := budgetwf.ScheduleWithContext(ctx, name, w, p, 1e6); !errors.Is(err, context.Canceled) {
			t.Errorf("ScheduleWithContext(%q) under cancelled context: err = %v, want context.Canceled", name, err)
		}
	}

	// An un-cancelled context schedules normally.
	if _, err := budgetwf.ScheduleWithContext(context.Background(), "heftbudg", w, p, 1e6); err != nil {
		t.Errorf("ScheduleWithContext with live context failed: %v", err)
	}
}

// TestReplicateSummarizesReplayBatch: the facade's Replication is
// stats.Summarize of the exp.Batch the same Replay returns — on the
// paper's platform and on a revocable market, where the executions run
// through the online executor under revocation seed seed + i.
func TestReplicateSummarizesReplayBatch(t *testing.T) {
	w, err := budgetwf.Generate(budgetwf.Montage, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithSigmaRatio(0.5)
	const n, seed, budget = 9, 42, 0.012
	for name, p := range map[string]*budgetwf.Platform{
		"default":  budgetwf.DefaultPlatform(),
		"spot 6/h": budgetwf.DefaultPlatform().WithSpotTwins(0.6, 6),
	} {
		s, err := budgetwf.ScheduleWith(budgetwf.AlgHeftBudg, w, p, budget)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := exp.Replay{Workflow: w, Platform: p, Schedule: s, Budget: budget, Reps: n,
			Weights: rng.New(seed), FaultSeed: seed}.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := budgetwf.ReplicateBudget(w, p, s, n, seed, budget)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := budgetwf.Replication{Makespan: stats.Summarize(b.Makespans), Cost: stats.Summarize(b.Costs),
			ValidFrac: b.Frac(b.InBudget), Budget: budget}
		if *rep != want {
			t.Errorf("%s: ReplicateBudget = %+v, the batch summarizes to %+v", name, *rep, want)
		}
		if name != "default" && (b.Revocations == 0 || b.Completed == n) {
			t.Errorf("%s: %d revocations, %d of %d executions completed: the case no longer exercises partial runs", name, b.Revocations, b.Completed, n)
		}
	}
}
