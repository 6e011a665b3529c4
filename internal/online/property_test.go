package online

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"budgetwf/internal/plan"
	"budgetwf/internal/plan/plantest"
	"budgetwf/internal/platform"
	"budgetwf/internal/rng"
	"budgetwf/internal/sim"
	"budgetwf/internal/stoch"
	"budgetwf/internal/wf"
)

// randomOnlineCase mirrors the simulator's property-test generator:
// random DAG, random valid schedule, random two-category platform —
// half of them spread over two providers, with an inter-provider
// transfer surcharge, latency and bandwidth on the far one.
func randomOnlineCase(r *rand.Rand) (*wf.Workflow, *plan.Schedule, *platform.Platform) {
	n := 2 + r.Intn(20)
	w := wf.New("prop")
	for i := 0; i < n; i++ {
		w.AddTask("t", stoch.Dist{Mean: 10 + r.Float64()*500, Sigma: r.Float64() * 200})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.12 {
				w.MustAddEdge(wf.TaskID(i), wf.TaskID(j), r.Float64()*1000)
			}
		}
	}
	for i := 0; i < n; i++ {
		if r.Float64() < 0.3 {
			_ = w.SetExternalIO(wf.TaskID(i), r.Float64()*500, r.Float64()*200)
		}
	}
	p := scalarPlatform(r)
	if r.Intn(2) == 0 {
		far := r.Intn(2) // the category hosted away from the datacenter
		p.Providers = []string{"dc", "far"}
		p.Categories[far].Provider = 1
		lat, cost := 5*r.Float64(), 0.01*r.Float64()
		p.XferLatencySec = [][]float64{{0, lat}, {lat, 0}}
		p.XferCostPerByte = [][]float64{{0, cost}, {cost, 0}}
		p.ProviderBandwidth = []float64{50, 10 + 90*r.Float64()}
	}
	numVMs := 1 + r.Intn(4)
	s := plan.New(n)
	for v := 0; v < numVMs; v++ {
		s.AddVM(r.Intn(2))
	}
	for i := 0; i < n; i++ {
		s.ListT = append(s.ListT, wf.TaskID(i))
		s.TaskVM[i] = r.Intn(numVMs)
	}
	plantest.CompactVMs(s)
	return w, s, p
}

// scalarPlatform draws the generator's single-provider platform.
func scalarPlatform(r *rand.Rand) *platform.Platform {
	return &platform.Platform{
		Categories: []platform.Category{
			{Name: "s", Speed: 10, CostPerSec: 1, InitCost: 1},
			{Name: "l", Speed: 40, CostPerSec: 5, InitCost: 1},
		},
		Bandwidth:    50,
		BootTime:     float64(r.Intn(10)),
		DCCostPerSec: 0.01, TransferCostPerByte: 0.001,
	}
}

// sameBits reports whether a Report and a Result agree bit for bit on
// makespan, cost and every task's realized times.
func sameBits(got *Report, want *sim.Result) bool {
	if math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan) ||
		math.Float64bits(got.TotalCost) != math.Float64bits(want.TotalCost) ||
		got.NumVMs != want.NumVMs() || len(got.Tasks) != len(want.Tasks) {
		return false
	}
	for i, tt := range got.Tasks {
		w := want.Tasks[i]
		for _, pair := range [][2]float64{{tt.StageStart, w.StageStart}, {tt.ComputeStart, w.ComputeStart}, {tt.Finish, w.Finish}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				return false
			}
		}
	}
	return true
}

// TestParityFuzz extends the disabled-policy parity check to random
// DAGs, schedules and platforms, single- and two-provider: makespan,
// cost and every task time agree bit for bit.
func TestParityFuzz(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, s, p := randomOnlineCase(r)
		weights := sim.SampleWeights(w, rng.New(uint64(seed)))
		want, err1 := sim.Run(w, p, s, weights)
		got, err2 := Execute(w, p, s, weights, Policy{})
		if err1 != nil || err2 != nil {
			return (err1 == nil) == (err2 == nil)
		}
		if !sameBits(got, want) {
			t.Logf("seed %d: online %v/%v, sim %v/%v", seed, got.Makespan, got.TotalCost, want.Makespan, want.TotalCost)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMonitoredExecutionInvariants: under an active policy, every
// execution completes, migrations respect the per-task allowance and
// only ever move to the fastest category, and the reported cost is
// internally consistent.
func TestMonitoredExecutionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, s, p := randomOnlineCase(r)
		weights := sim.SampleWeightsOutliers(w, rng.New(uint64(seed)), stoch.Outliers{Prob: 0.2, Factor: 10})
		policy := Policy{TimeoutSigma: 2, MaxMigrations: 1 + r.Intn(2)}
		rep, err := Execute(w, p, s, weights, policy)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		perTask := map[wf.TaskID]int{}
		for _, m := range rep.Migrations {
			perTask[m.Task]++
			if m.ToVM < s.NumVMs() {
				t.Logf("seed %d: migration reused a planned VM", seed)
				return false
			}
			if m.Wasted < 0 || m.At < 0 {
				return false
			}
		}
		for task, c := range perTask {
			if c > policy.maxMigrations() {
				t.Logf("seed %d: task %d migrated %d times", seed, task, c)
				return false
			}
		}
		if rep.NumVMs != s.NumVMs()+len(rep.Migrations) {
			t.Logf("seed %d: NumVMs %d != %d planned + %d migrations",
				seed, rep.NumVMs, s.NumVMs(), len(rep.Migrations))
			return false
		}
		return rep.Makespan > 0 && rep.TotalCost > 0 && rep.DCCost >= 0 && rep.TotalCost >= rep.DCCost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestGuardMonotone: adding the budget guard can only reduce the
// number of migrations, and an infinite guard changes nothing.
func TestGuardMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, s, p := randomOnlineCase(r)
		weights := sim.SampleWeightsOutliers(w, rng.New(uint64(seed)), stoch.Outliers{Prob: 0.2, Factor: 10})
		free, err1 := Execute(w, p, s, weights, Policy{TimeoutSigma: 2, MaxMigrations: 1})
		tight, err2 := Execute(w, p, s, weights, Policy{TimeoutSigma: 2, MaxMigrations: 1, Budget: 1e-6})
		loose, err3 := Execute(w, p, s, weights, Policy{TimeoutSigma: 2, MaxMigrations: 1, Budget: 1e12})
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		if len(tight.Migrations) != 0 {
			t.Logf("seed %d: tight guard still migrated", seed)
			return false
		}
		if len(loose.Migrations) != len(free.Migrations) {
			t.Logf("seed %d: loose guard changed migrations (%d vs %d)",
				seed, len(loose.Migrations), len(free.Migrations))
			return false
		}
		return loose.Makespan == free.Makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
