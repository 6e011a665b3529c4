package online

import (
	"math"
	"testing"

	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/sim"
	"budgetwf/internal/stoch"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// TestParityWithSimulatorWhenDisabled is the key correctness anchor:
// with monitoring disabled, the online executor must reproduce the
// discrete-event simulator's makespan, cost and task times bit for bit,
// across all workflow families and stochastic weights.
func TestParityWithSimulatorWhenDisabled(t *testing.T) {
	p := platform.Default()
	for _, typ := range wfgen.AllPaperTypes() {
		for seed := uint64(0); seed < 3; seed++ {
			w := wfgen.MustGenerate(typ, 30, seed).WithSigmaRatio(0.75)
			s, err := sched.HeftBudg(w, p, 100)
			if err != nil {
				t.Fatal(err)
			}
			weights := sim.SampleWeights(w, rng.New(seed))
			want, err := sim.Run(w, p, s, weights)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Execute(w, p, s, weights, Policy{})
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Errorf("%s seed %d: makespan %v, cost %v (online) vs %v, %v (sim), or a task time differs",
					typ, seed, got.Makespan, got.TotalCost, want.Makespan, want.TotalCost)
			}
			if len(got.Migrations) != 0 || got.Vetoed != 0 {
				t.Errorf("%s seed %d: disabled policy intervened", typ, seed)
			}
		}
	}
}

// straggler builds a two-task chain where the first task's realized
// weight is far in the tail, on a slow VM.
func stragglerCase(t *testing.T) (*wf.Workflow, *plan.Schedule, *platform.Platform, []float64) {
	t.Helper()
	w := wf.New("straggler")
	a := w.AddTask("a", stoch.Dist{Mean: 100e9, Sigma: 20e9})
	b := w.AddTask("b", stoch.Dist{Mean: 50e9, Sigma: 5e9})
	w.MustAddEdge(a, b, 10e6)
	p := platform.Default()
	s := plan.New(2)
	s.ListT = []wf.TaskID{a, b}
	vm := s.AddVM(0) // slow category
	s.Assign(a, vm)
	s.Assign(b, vm)
	// a's realized weight is an extreme straggler (5× its mean): the
	// migration must amortize a fresh VM's 60 s boot plus the restart
	// from scratch, so a mild overrun would not be worth moving.
	weights := []float64{500e9, 50e9}
	return w, s, p, weights
}

func TestStragglerIsMigrated(t *testing.T) {
	w, s, p, weights := stragglerCase(t)
	static, err := sim.Run(w, p, s, weights)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Execute(w, p, s, weights, Policy{TimeoutSigma: 2, MaxMigrations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Migrations) != 1 {
		t.Fatalf("migrations = %+v, want exactly 1", rep.Migrations)
	}
	m := rep.Migrations[0]
	if m.Task != 0 {
		t.Errorf("migrated task %d, want the straggler (0)", m.Task)
	}
	// Timeout: (100+2·20)e9 / 1e9 = 140 s after compute start (60 boot).
	if math.Abs(m.At-200) > 1e-6 {
		t.Errorf("interrupt at %v, want 200", m.At)
	}
	if math.Abs(m.Wasted-140) > 1e-6 {
		t.Errorf("wasted %v, want 140", m.Wasted)
	}
	if rep.Makespan >= static.Makespan {
		t.Errorf("online makespan %.1f no better than static %.1f", rep.Makespan, static.Makespan)
	}
	if rep.NumVMs != 2 {
		t.Errorf("NumVMs = %d, want 2 (original + migration target)", rep.NumVMs)
	}
}

func TestLuckyTaskIsNotMigrated(t *testing.T) {
	w, s, p, _ := stragglerCase(t)
	// Realized weights at their means: no timeout fires.
	rep, err := Execute(w, p, s, []float64{100e9, 50e9}, Policy{TimeoutSigma: 2, MaxMigrations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Migrations) != 0 || rep.Vetoed != 0 {
		t.Errorf("no-straggler run intervened: %+v", rep)
	}
}

func TestBudgetGuardVetoes(t *testing.T) {
	// A transfer-heavy straggler: restaging its 25 GB input onto an
	// 8×-as-expensive fastest-category VM costs more than letting the
	// slow VM finish, so with a budget barely above the static cost
	// the guard must refuse the migration.
	w := wf.New("heavyin")
	a := w.AddTask("a", stoch.Dist{Mean: 100e9, Sigma: 20e9})
	if err := w.SetExternalIO(a, 25e9, 0); err != nil {
		t.Fatal(err)
	}
	p := platform.Default()
	s := plan.New(1)
	s.ListT = []wf.TaskID{a}
	s.Assign(a, s.AddVM(0))
	weights := []float64{300e9}
	static, err := sim.Run(w, p, s, weights)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Execute(w, p, s, weights, Policy{TimeoutSigma: 2, MaxMigrations: 1, Budget: static.TotalCost * 1.001})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Migrations) != 0 {
		t.Fatalf("guard failed to veto: %+v (static cost %v)", rep.Migrations, static.TotalCost)
	}
	if rep.Vetoed != 1 {
		t.Errorf("vetoed = %d, want 1", rep.Vetoed)
	}
	// Vetoed execution equals the static one.
	if math.Abs(rep.Makespan-static.Makespan) > 1e-6 {
		t.Errorf("vetoed makespan %v != static %v", rep.Makespan, static.Makespan)
	}
	if math.Abs(rep.TotalCost-static.TotalCost) > 1e-6 {
		t.Errorf("vetoed cost %v != static %v", rep.TotalCost, static.TotalCost)
	}
}

func TestFastestCategoryNeverMigrates(t *testing.T) {
	w := wf.New("fast")
	a := w.AddTask("a", stoch.Dist{Mean: 100e9, Sigma: 20e9})
	p := platform.Default()
	s := plan.New(1)
	s.ListT = []wf.TaskID{0}
	s.Assign(0, s.AddVM(p.Fastest()))
	rep, err := Execute(w, p, s, []float64{300e9}, Policy{TimeoutSigma: 2, MaxMigrations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Migrations) != 0 {
		t.Error("task on the fastest category was migrated")
	}
	_ = a
}

func TestMaxMigrationsRespected(t *testing.T) {
	// A task so slow that even the fastest category would time out —
	// but the fastest category is never interrupted, so cap the chain
	// differently: slow → fast counts as the single allowed migration.
	w := wf.New("m")
	w.AddTask("a", stoch.Dist{Mean: 100e9, Sigma: 10e9})
	p := platform.Default()
	s := plan.New(1)
	s.ListT = []wf.TaskID{0}
	s.Assign(0, s.AddVM(0))
	rep, err := Execute(w, p, s, []float64{500e9}, Policy{TimeoutSigma: 1, MaxMigrations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Migrations) != 1 {
		t.Fatalf("migrations = %d, want 1", len(rep.Migrations))
	}
	if got := rep.Migrations[0].ToVM; s.VMCats[0] == p.Fastest() || rep.NumVMs != 2 || got != 1 {
		t.Errorf("unexpected migration target layout: %+v", rep)
	}
}

// TestLocalDataReuploadedOnMigration: the migrated task's input was
// produced on the abandoned VM and must transit the datacenter before
// the new VM can stage it.
func TestLocalDataReuploadedOnMigration(t *testing.T) {
	w := wf.New("chainmig")
	a := w.AddTask("a", stoch.Dist{Mean: 10e9, Sigma: 1e9})
	b := w.AddTask("b", stoch.Dist{Mean: 100e9, Sigma: 20e9})
	w.MustAddEdge(a, b, 1250e6) // 10 s of transfer at 125 MB/s
	p := platform.Default()
	s := plan.New(2)
	s.ListT = []wf.TaskID{a, b}
	vm := s.AddVM(0)
	s.Assign(a, vm)
	s.Assign(b, vm)
	weights := []float64{10e9, 400e9} // b is a deep straggler
	rep, err := Execute(w, p, s, weights, Policy{TimeoutSigma: 2, MaxMigrations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Migrations) != 1 {
		t.Fatalf("want 1 migration, got %+v", rep.Migrations)
	}
	// Timeline: boot 60, a computes 60→70 (data local), b starts 70,
	// timeout (100+40)/1 = 140 → interrupt at 210. Then a→DC upload
	// 10 s (220), new VM books at 220, boots 280, stages 10 s (290),
	// computes 400/4 = 100 → finishes 390.
	m := rep.Migrations[0]
	if math.Abs(m.At-210) > 1e-6 {
		t.Errorf("interrupt at %v, want 210", m.At)
	}
	if math.Abs(rep.Makespan-390) > 1e-6 {
		t.Errorf("makespan %v, want 390", rep.Makespan)
	}
}

// TestGainRuleFiltersGaussianTails: under purely Gaussian weights the
// default policy (2σ timeout + gain rule) must perform almost no
// migrations — a Gaussian task that merely landed in its tail never
// justifies paying a fresh VM's boot — whereas the bare 2σ timeout
// without the gain rule fires routinely.
func TestGainRuleFiltersGaussianTails(t *testing.T) {
	p := platform.Default()
	w := wfgen.MustGenerate(wfgen.Montage, 60, 0).WithSigmaRatio(1.0)
	budget := 1.3 * montageCheap(t, w, p)
	s, err := sched.HeftBudg(w, p, budget)
	if err != nil {
		t.Fatal(err)
	}
	stream := rng.New(5)
	withRule, withoutRule := 0, 0
	const reps = 30
	for i := 0; i < reps; i++ {
		weights := sim.SampleWeights(w, stream.Split(uint64(i)))
		ruled, err := Execute(w, p, s, weights, Policy{TimeoutSigma: 2, GainFactor: 1, MaxMigrations: 1})
		if err != nil {
			t.Fatal(err)
		}
		bare, err := Execute(w, p, s, weights, Policy{TimeoutSigma: 2, MaxMigrations: 1})
		if err != nil {
			t.Fatal(err)
		}
		withRule += len(ruled.Migrations)
		withoutRule += len(bare.Migrations)
	}
	if withoutRule == 0 {
		t.Fatal("bare 2σ timeouts never fired at σ/w̄ = 1.0 — test scenario broken")
	}
	if withRule*4 > withoutRule {
		t.Errorf("gain rule only reduced migrations %d → %d; expected a drastic cut", withoutRule, withRule)
	}
	t.Logf("Gaussian-tail migrations: %d bare vs %d with gain rule over %d runs", withoutRule, withRule, reps)
}

// TestOnlineImprovesTailUnderOutliers: with heavy-tail blow-ups the
// monitored execution must cut the worst-case makespan while still
// performing migrations.
func TestOnlineImprovesTailUnderOutliers(t *testing.T) {
	p := platform.Default()
	w := wfgen.MustGenerate(wfgen.Montage, 60, 0).WithSigmaRatio(0.5)
	budget := 1.3 * montageCheap(t, w, p)
	s, err := sched.HeftBudg(w, p, budget)
	if err != nil {
		t.Fatal(err)
	}
	stream := rng.New(7)
	outliers := stoch.Outliers{Prob: 0.06, Factor: 15}
	totalMigs := 0
	var staticMax, onlineMax float64
	const reps = 30
	for i := 0; i < reps; i++ {
		weights := sim.SampleWeightsOutliers(w, stream.Split(uint64(i)), outliers)
		st, err := sim.Run(w, p, s, weights)
		if err != nil {
			t.Fatal(err)
		}
		on, err := Execute(w, p, s, weights, Policy{TimeoutSigma: 2, GainFactor: 1, MaxMigrations: 1})
		if err != nil {
			t.Fatal(err)
		}
		totalMigs += len(on.Migrations)
		if st.Makespan > staticMax {
			staticMax = st.Makespan
		}
		if on.Makespan > onlineMax {
			onlineMax = on.Makespan
		}
	}
	if totalMigs == 0 {
		t.Fatal("no migrations despite 15× outliers")
	}
	if onlineMax >= staticMax {
		t.Errorf("online worst case %.1f not better than static %.1f", onlineMax, staticMax)
	}
	t.Logf("%d migrations over %d runs; worst case %.1f (online) vs %.1f (static)",
		totalMigs, reps, onlineMax, staticMax)
}

// montageCheap computes the single-cheap-VM cost anchor.
func montageCheap(t *testing.T, w *wf.Workflow, p *platform.Platform) float64 {
	t.Helper()
	order, err := w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	cs := plan.New(w.NumTasks())
	cs.ListT = order
	vm := cs.AddVM(p.Cheapest())
	for _, id := range order {
		cs.Assign(id, vm)
	}
	r, err := sim.RunDeterministic(w, p, cs)
	if err != nil {
		t.Fatal(err)
	}
	return r.TotalCost
}
