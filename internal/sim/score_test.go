package sim_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"budgetwf/internal/exp"
	"budgetwf/internal/plan"
	"budgetwf/internal/plan/plantest"
	"budgetwf/internal/platform"
	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/sim"
	"budgetwf/internal/stoch"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// scorePlatforms are the regimes Score must reproduce. The first three
// take the forward pass; a finite datacenter bandwidth and a transfer
// surcharge make Score run the event engine internally. maxN caps the
// workflow size TestScoreMatchesRun plans there: the full range where a
// platform changes timings on the forward pass, small sizes where it
// only changes billing (hourly) or only shows the fallback wiring.
func scorePlatforms() []struct {
	name string
	p    *platform.Platform
	maxN int
} {
	hourly := platform.Default()
	hourly.BillingQuantum = 3600

	twoProviders := func() *platform.Platform {
		p := platform.Default()
		p.Providers = []string{"alpha", "beta"}
		p.Categories[1].Provider = 1
		p.DCProvider = 1
		p.ProviderBootTime = []float64{60, 30}
		p.ProviderBandwidth = []float64{125e6, 250e6}
		p.XferLatencySec = [][]float64{{0, 0.5}, {0.25, 0}}
		return p
	}
	latency := twoProviders()
	latency.XferCostPerByte = [][]float64{{0, 0}, {0, 0}}

	fluid := platform.Default()
	fluid.DCBandwidth = 3 * fluid.Bandwidth

	surcharge := twoProviders()
	surcharge.XferCostPerByte = [][]float64{{0, 0.02e-9}, {0.01e-9, 0}}

	return []struct {
		name string
		p    *platform.Platform
		maxN int
	}{
		{"default", platform.Default(), 300}, {"hourly", hourly, 100}, {"latency", latency, 300},
		{"fluid", fluid, 100}, {"surcharge", surcharge, 100},
	}
}

// checkScore holds Score to Run's makespan and cost, bit for bit, or to
// Run's error. Score runs before and after Run so that neither entry
// point may depend on state the other left behind.
func checkScore(t testing.TB, name string, r *sim.Runner, weights []float64) {
	t.Helper()
	mk0, cost0, err0 := r.Score(weights)
	res, err := r.Run(weights)
	mk1, cost1, err1 := r.Score(weights)
	if err != nil {
		if err0 == nil || err1 == nil || err0.Error() != err.Error() || err1.Error() != err.Error() {
			t.Fatalf("%s: Run fails with %q, Score with %v then %v", name, err, err0, err1)
		}
		return
	}
	if err0 != nil || err1 != nil {
		t.Fatalf("%s: Run succeeds, Score fails with %v then %v", name, err0, err1)
	}
	for i, got := range [][2]float64{{mk0, cost0}, {mk1, cost1}} {
		if math.Float64bits(got[0]) != math.Float64bits(res.Makespan) ||
			math.Float64bits(got[1]) != math.Float64bits(res.TotalCost) {
			t.Fatalf("%s: Score #%d = (%v, %v), Run = (%v, %v)", name, i, got[0], got[1], res.Makespan, res.TotalCost)
		}
	}
}

// singleVM puts every task on one VM of category cat, in topological
// order.
func singleVM(t testing.TB, w *wf.Workflow, cat int) *plan.Schedule {
	t.Helper()
	s, err := exp.CheapestSchedule(w, platform.Default())
	if err != nil {
		t.Fatal(err)
	}
	s.VMCats[0] = cat
	return s
}

// TestScoreMatchesRun: on the schedules of every list planner, over
// workflow families, sizes, budgets and platforms, Score equals Run on
// sampled weight vectors at three uncertainty levels.
func TestScoreMatchesRun(t *testing.T) {
	families := []wfgen.Type{wfgen.CyberShake, wfgen.Ligo, wfgen.Montage, wfgen.Epigenomics, wfgen.Sipht,
		wfgen.Random, wfgen.Chain, wfgen.ForkJoin, wfgen.BagOfTasks}
	sizes := []int{20, 100, 300}
	if testing.Short() {
		sizes = []int{20, 100}
	}
	// One vector at σ = 0, where every draw is the mean; 21 per schedule.
	samples := map[float64]int{0: 1, 0.5: 10, 1: 10}
	pairs := 0
	for _, pl := range scorePlatforms() {
		for _, fam := range families {
			for _, n := range sizes {
				if n > pl.maxN {
					continue
				}
				base, err := wfgen.Generate(fam, n, uint64(n))
				if err != nil {
					continue // n is not a size this family generates
				}
				planned := base.WithSigmaRatio(0.5)
				anchors, err := exp.ComputeAnchors(planned, pl.p)
				if err != nil {
					t.Fatal(err)
				}
				for _, alg := range sched.AllExtended() {
					if strings.Contains(string(alg.Name), "+") {
						continue // refinement planners: covered in internal/sched
					}
					for _, budget := range []float64{anchors.CheapCost, 2 * anchors.CheapCost, 1e9} {
						s, err := alg.Plan(planned, pl.p, budget)
						if err != nil {
							t.Fatalf("%s/%s/n%d/%s: %v", pl.name, fam, n, alg.Name, err)
						}
						for _, sigma := range []float64{0, 0.5, 1} {
							w := base.WithSigmaRatio(sigma)
							r, err := sim.NewRunner(w, pl.p, s)
							if err != nil {
								t.Fatal(err)
							}
							name := fmt.Sprintf("%s/%s/n%d/%s/B%.3g/sigma%v", pl.name, fam, n, alg.Name, budget, sigma)
							stream := rng.New(uint64(n)).Split(uint64(100 * sigma))
							for i := 0; i < samples[sigma]; i++ {
								checkScore(t, name, r, sim.SampleWeights(w, stream.Split(uint64(i))))
								pairs++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d (schedule, weights) pairs bit-equal", pairs)
}

// randomScoreCase builds a random DAG, assigns tasks to random VMs with
// ListT-derived orders (task ID order, topological because edges go up)
// and picks one of the scorePlatforms.
func randomScoreCase(r *rand.Rand) (*wf.Workflow, *plan.Schedule, *platform.Platform) {
	n := 1 + r.Intn(40)
	w := wf.New("fuzz")
	for i := 0; i < n; i++ {
		w.AddTask("t", stoch.Dist{Mean: 1e9 * (1 + 50*r.Float64()), Sigma: 1e9 * r.Float64()})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.15 {
				w.MustAddEdge(wf.TaskID(i), wf.TaskID(j), float64(r.Intn(3))*1e8*r.Float64()) // a third are zero-size
			}
		}
		if r.Float64() < 0.3 {
			_ = w.SetExternalIO(wf.TaskID(i), float64(r.Intn(2))*1e8*r.Float64(), float64(r.Intn(2))*1e8*r.Float64())
		}
	}
	pls := scorePlatforms()
	p := pls[r.Intn(len(pls))].p
	numVMs := 1 + r.Intn(8)
	s := plan.New(n)
	for v := 0; v < numVMs; v++ {
		s.AddVM(r.Intn(p.NumCategories()))
	}
	for i := 0; i < n; i++ {
		s.ListT = append(s.ListT, wf.TaskID(i))
		s.TaskVM[i] = r.Intn(numVMs)
	}
	plantest.CompactVMs(s)
	return w, s, p
}

func checkRandomScoreCase(t testing.TB, seed int64) {
	r := rand.New(rand.NewSource(seed))
	w, s, p := randomScoreCase(r)
	runner, err := sim.NewRunner(w, p, s)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	stream := rng.New(uint64(seed))
	for i := 0; i < 4; i++ {
		checkScore(t, fmt.Sprintf("seed %d sample %d", seed, i), runner, sim.SampleWeights(w, stream.Split(uint64(i))))
	}
	checkScore(t, fmt.Sprintf("seed %d conservative", seed), runner, sim.ConservativeWeights(w))
}

func TestScoreMatchesRunRandom(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		checkRandomScoreCase(t, seed)
	}
}

// FuzzScoreMatchesRun: on random DAGs with random VM assignments and
// ListT-derived orders, Score agrees with Run.
func FuzzScoreMatchesRun(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, 1 << 40, -7} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkRandomScoreCase(t, seed) })
}

// TestScoreHandBuilt covers the corners a planner's schedule rarely
// reaches.
func TestScoreHandBuilt(t *testing.T) {
	d := stoch.Dist{Mean: 3e9, Sigma: 1e9}
	t.Run("zero-size crossing edge and external output only", func(t *testing.T) {
		w := wf.New("w")
		a, b, c := w.AddTask("a", d), w.AddTask("b", d), w.AddTask("c", d)
		w.MustAddEdge(a, b, 0)
		w.MustAddEdge(a, c, 5e8)
		if err := w.SetExternalIO(c, 0, 7e8); err != nil {
			t.Fatal(err)
		}
		s := plan.New(3)
		s.ListT = []wf.TaskID{a, b, c}
		s.Assign(a, s.AddVM(0))
		s.Assign(b, s.AddVM(2))
		s.Assign(c, s.AddVM(1))
		for _, pl := range scorePlatforms() {
			r, err := sim.NewRunner(w, pl.p, s)
			if err != nil {
				t.Fatal(err)
			}
			checkScore(t, pl.name, r, sim.ConservativeWeights(w))
		}
	})
	t.Run("single VM", func(t *testing.T) {
		w := wfgen.MustGenerate(wfgen.Montage, 20, 1)
		for _, pl := range scorePlatforms() {
			r, err := sim.NewRunner(w, pl.p, singleVM(t, w, 1))
			if err != nil {
				t.Fatal(err)
			}
			checkScore(t, pl.name, r, sim.ConservativeWeights(w))
		}
	})
	t.Run("cross-VM cycle deadlocks", func(t *testing.T) {
		// Each VM's order is fine on its own, but x1 waits for y2 behind
		// y1, which waits for x2 behind x1. Only z ever runs.
		w := wf.New("cycle")
		x1, x2, y1, y2, z := w.AddTask("x1", d), w.AddTask("x2", d), w.AddTask("y1", d), w.AddTask("y2", d), w.AddTask("z", d)
		w.MustAddEdge(y2, x1, 1e6)
		w.MustAddEdge(x2, y1, 1e6)
		s := plan.New(5)
		s.ListT = []wf.TaskID{x1, x2, y1, y2, z}
		vx, vy, vz := s.AddVM(0), s.AddVM(1), s.AddVM(0)
		for _, a := range []struct {
			t  wf.TaskID
			vm int
		}{{x1, vx}, {x2, vx}, {y1, vy}, {y2, vy}, {z, vz}} {
			s.Assign(a.t, a.vm)
		}
		for _, pl := range scorePlatforms() {
			r, err := sim.NewRunner(w, pl.p, s)
			if err != nil {
				t.Fatal(err)
			}
			checkScore(t, pl.name, r, sim.ConservativeWeights(w))
			const want = "sim: deadlock with 1/5 tasks finished"
			if _, _, err := r.Score(sim.ConservativeWeights(w)); err == nil || err.Error() != want {
				t.Fatalf("%s: Score error = %v, want %q", pl.name, err, want)
			}
		}
	})
	t.Run("invalid weights", func(t *testing.T) {
		w := wfgen.MustGenerate(wfgen.Montage, 20, 1)
		for _, pl := range scorePlatforms() {
			r, err := sim.NewRunner(w, pl.p, singleVM(t, w, 0))
			if err != nil {
				t.Fatal(err)
			}
			for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
				weights := sim.ConservativeWeights(w)
				weights[7] = bad
				checkScore(t, pl.name, r, weights)
				if _, _, err := r.Score(weights); err == nil {
					t.Fatalf("%s: Score accepts weight %v", pl.name, bad)
				}
			}
			checkScore(t, pl.name, r, sim.ConservativeWeights(w)[:19])
			if _, _, err := r.Score(nil); err == nil {
				t.Fatalf("%s: Score accepts a short weight vector", pl.name)
			}
		}
	})
}

// TestScoreAfterRebind: a Runner re-pointed at another schedule scores
// it as a fresh Runner does, and scoring allocates nothing once the
// worklist exists.
func TestScoreAfterRebind(t *testing.T) {
	w := wfgen.MustGenerate(wfgen.Montage, 60, 3).WithSigmaRatio(0.5)
	p := platform.Default()
	first, err := sched.Heft(w, p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(w, p, singleVM(t, w, 0))
	if err != nil {
		t.Fatal(err)
	}
	weights := sim.SampleWeights(w, rng.New(9))
	for _, s := range []*plan.Schedule{first, singleVM(t, w, 2), first} {
		if err := r.Rebind(s); err != nil {
			t.Fatal(err)
		}
		fresh, err := sim.NewRunner(w, p, s)
		if err != nil {
			t.Fatal(err)
		}
		mk, cost, err := r.Score(weights)
		wantMk, wantCost, wantErr := fresh.Score(weights)
		if err != nil || wantErr != nil || mk != wantMk || cost != wantCost {
			t.Fatalf("rebound Score = (%v, %v, %v), fresh = (%v, %v, %v)", mk, cost, err, wantMk, wantCost, wantErr)
		}
		checkScore(t, "rebound", r, weights)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := r.Score(weights); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Score allocates %v times per call, want 0", allocs)
	}
}
