package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"budgetwf/internal/plan"
	"budgetwf/internal/plan/plantest"
	"budgetwf/internal/platform"
	"budgetwf/internal/rng"
	"budgetwf/internal/stoch"
	"budgetwf/internal/wf"
)

// randomCase builds a random DAG plus a random valid schedule for it:
// tasks are assigned to random VMs and per-VM orders follow task ID,
// which is topological because edges only go from lower to higher IDs.
func randomCase(r *rand.Rand) (*wf.Workflow, *plan.Schedule, *platform.Platform) {
	n := 2 + r.Intn(25)
	w := wf.New("prop")
	for i := 0; i < n; i++ {
		w.AddTask("t", stoch.Dist{Mean: 10 + r.Float64()*500, Sigma: r.Float64() * 100})
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
	p := &platform.Platform{
		Categories: []platform.Category{
			{Name: "s", Speed: 10, CostPerSec: 1, InitCost: 1},
			{Name: "l", Speed: 40, CostPerSec: 5, InitCost: 1},
		},
		Bandwidth:    50,
		BootTime:     float64(r.Intn(10)),
		DCCostPerSec: 0.01, TransferCostPerByte: 0.001,
	}
	if r.Float64() < 0.4 {
		p.DCBandwidth = 50 + r.Float64()*100
	}
	numVMs := 1 + r.Intn(5)
	s := plan.New(n)
	for v := 0; v < numVMs; v++ {
		s.AddVM(r.Intn(2))
	}
	for i := 0; i < n; i++ {
		s.ListT = append(s.ListT, wf.TaskID(i))
	}
	for i := 0; i < n; i++ {
		s.TaskVM[i] = r.Intn(numVMs)
	}
	plantest.CompactVMs(s)
	return w, s, p
}

// TestSimulationInvariants checks, on random (workflow, schedule,
// platform) triples, the structural invariants every execution must
// satisfy.
func TestSimulationInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, s, p := randomCase(r)
		weights := SampleWeights(w, rng.New(uint64(seed)))
		res, err := Run(w, p, s, weights)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// (1) Precedence: a task never starts computing before every
		// predecessor finished.
		for _, e := range w.Edges() {
			if res.Tasks[e.To].ComputeStart < res.Tasks[e.From].Finish-1e-9 {
				t.Logf("seed %d: precedence %d→%d violated", seed, e.From, e.To)
				return false
			}
			// Crossing edges additionally pay the round trip.
			if s.TaskVM[e.From] != s.TaskVM[e.To] {
				arr := res.Tasks[e.From].Finish + e.Size/p.Bandwidth
				if res.Tasks[e.To].StageStart < arr-1e-9 && e.Size > 0 && p.DCBandwidth == 0 {
					t.Logf("seed %d: edge %d→%d staged before DC arrival", seed, e.From, e.To)
					return false
				}
			}
		}
		// (2) Per-VM mutual exclusion of compute intervals.
		for _, order := range s.Order {
			for i := 1; i < len(order); i++ {
				prev, cur := order[i-1], order[i]
				if res.Tasks[cur].ComputeStart < res.Tasks[prev].Finish-1e-9 {
					t.Logf("seed %d: VM overlap %d then %d", seed, prev, cur)
					return false
				}
			}
		}
		// (3) Cost decomposition is exact.
		sum := res.DCCost
		for _, vm := range res.VMs {
			sum += vm.Cost
			if vm.End < vm.Start-1e-9 || vm.Start < vm.Book-1e-9 {
				t.Logf("seed %d: VM lifecycle out of order %+v", seed, vm)
				return false
			}
		}
		if !almostEq(sum, res.TotalCost) {
			t.Logf("seed %d: cost %v != sum %v", seed, res.TotalCost, sum)
			return false
		}
		// (4) Makespan consistency.
		if !almostEq(res.Makespan, res.LastEvent-res.FirstBook) || res.Makespan < 0 {
			t.Logf("seed %d: makespan inconsistent", seed)
			return false
		}
		// (5) Every task ran within the span.
		for i := range res.Tasks {
			if res.Tasks[i].Finish <= 0 || res.Tasks[i].Finish > res.LastEvent+1e-9 {
				t.Logf("seed %d: task %d finish %v outside span", seed, i, res.Tasks[i].Finish)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestSimulationDeterministic: identical inputs give identical results.
func TestSimulationDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		r1 := rand.New(rand.NewSource(seed))
		w1, s1, p1 := randomCase(r1)
		r2 := rand.New(rand.NewSource(seed))
		w2, s2, p2 := randomCase(r2)
		weights := MeanWeights(w1)
		a, err1 := Run(w1, p1, s1, weights)
		b, err2 := Run(w2, p2, s2, weights)
		if err1 != nil || err2 != nil {
			return err1 == nil == (err2 == nil)
		}
		return a.Makespan == b.Makespan && a.TotalCost == b.TotalCost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// inflatedCase is TestWeightMonotonicity's input for one seed: a random
// case with its mean weights and the same weights each inflated by up
// to 2×.
func inflatedCase(seed int64) (w *wf.Workflow, s *plan.Schedule, p *platform.Platform, base, inflated []float64) {
	r := rand.New(rand.NewSource(seed))
	w, s, p = randomCase(r)
	base = MeanWeights(w)
	inflated = make([]float64, len(base))
	for i, x := range base {
		inflated[i] = x * (1 + r.Float64())
	}
	return w, s, p, base, inflated
}

// TestWeightMonotonicity: with a fixed schedule on a contention-free
// platform, inflating every task weight cannot shorten the makespan.
// There it is a theorem of the forward pass (score.go): every time is
// built from the weights by rounded +, / by a positive speed and max,
// all monotone, and the first booking is at 0. Under datacenter
// contention it is false (TestWeightAnomalyUnderContention).
func TestWeightMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		w, s, p, base, inflated := inflatedCase(seed)
		p.DCBandwidth = 0
		a, err1 := Run(w, p, s, base)
		b, err2 := Run(w, p, s, inflated)
		if err1 != nil || err2 != nil {
			return false
		}
		return b.Makespan >= a.Makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestWeightAnomalyUnderContention pins the input that used to break
// TestWeightMonotonicity when its seeds came from the clock: on a
// fluid platform (DCBandwidth 57.9 against VM links of 50; 9 tasks on
// 4 VMs) heavier tasks finish the workflow sooner, 99.44 → 98.82, both
// runs booking at 0. The cause is bandwidth-sharing desynchronisation:
// at the mean weights t1 finishes at 55.57 and uploads its 155.9-byte
// external output while t5 and t8 stage their inputs, so the three
// flows split the datacenter's bandwidth and t5 stages for 33.65 s; at
// the inflated weights t1 finishes at 77.90, after t5's staging — 30.80
// s for the same bytes — and t5 and t7, the last task, move earlier.
// Without contention the same inputs obey monotonicity.
func TestWeightAnomalyUnderContention(t *testing.T) {
	w, s, p, base, inflated := inflatedCase(7084428547402602402)
	if p.DCBandwidth == 0 || w.NumTasks() != 9 || s.NumVMs() != 4 {
		t.Fatalf("the pinned input changed: DCBandwidth %v, %d tasks, %d VMs", p.DCBandwidth, w.NumTasks(), s.NumVMs())
	}
	a, err := Run(w, p, s, base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(w, p, s, inflated)
	if err != nil {
		t.Fatal(err)
	}
	if b.Makespan >= a.Makespan || a.FirstBook != 0 || b.FirstBook != 0 {
		t.Fatalf("makespan %v → %v (first booking %v, %v): the anomaly is gone", a.Makespan, b.Makespan, a.FirstBook, b.FirstBook)
	}
	staging := func(r *Result, t int) float64 { return r.Tasks[t].ComputeStart - r.Tasks[t].StageStart }
	if w.TasksView()[1].ExternalOut == 0 || a.Tasks[1].Finish >= b.Tasks[5].StageStart+staging(b, 5) ||
		b.Tasks[1].Finish <= b.Tasks[5].StageStart+staging(b, 5) || staging(b, 5) >= staging(a, 5) {
		t.Fatalf("t1 finishes at %v then %v; t5 stages %v → %v s from %v: not the documented mechanism",
			a.Tasks[1].Finish, b.Tasks[1].Finish, staging(a, 5), staging(b, 5), b.Tasks[5].StageStart)
	}
	p.DCBandwidth = 0
	if a, b := mustRun(t, w, p, s, base), mustRun(t, w, p, s, inflated); b < a {
		t.Fatalf("without contention the makespan still falls: %v → %v", a, b)
	}
}

func mustRun(t *testing.T, w *wf.Workflow, p *platform.Platform, s *plan.Schedule, weights []float64) float64 {
	t.Helper()
	r, err := Run(w, p, s, weights)
	if err != nil {
		t.Fatal(err)
	}
	return r.Makespan
}

// TestSigmaZeroStochasticEqualsMean: sampling with σ=0 is exactly the
// mean-weight execution.
func TestSigmaZeroStochasticEqualsMean(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	w, s, p := randomCase(r)
	w0 := w.WithSigmaRatio(0)
	a, err := RunStochastic(w0, p, s, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(w0, p, s, MeanWeights(w0))
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.TotalCost != b.TotalCost {
		t.Errorf("σ=0 stochastic (%v, %v) != mean run (%v, %v)", a.Makespan, a.TotalCost, b.Makespan, b.TotalCost)
	}
}

// TestCriticalPathIsPath: blame-walking yields a chain of tasks with
// non-decreasing finish times ending at the global last finisher.
func TestCriticalPathIsPath(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, s, p := randomCase(r)
		res, err := Run(w, p, s, MeanWeights(w))
		if err != nil {
			return false
		}
		cp := res.CriticalPath()
		if len(cp) == 0 {
			return false
		}
		for i := 1; i < len(cp); i++ {
			if res.Tasks[cp[i]].Finish < res.Tasks[cp[i-1]].Finish-1e-9 {
				return false
			}
		}
		last := cp[len(cp)-1]
		for i := range res.Tasks {
			if res.Tasks[i].Finish > res.Tasks[last].Finish+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
