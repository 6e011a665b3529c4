package sched

import (
	"math"
	"math/rand"
	"testing"

	"budgetwf/internal/platform"
	"budgetwf/internal/sim"
	"budgetwf/internal/stoch"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// TestOCTTableHandComputed pins the OCT recursion on a two-task chain
// over the two-category test platform.
func TestOCTTableHandComputed(t *testing.T) {
	p := budgetPlatform() // speeds 10 and 30, bandwidth 10
	w := wf.New("chain")
	a := w.AddTask("a", stoch.Dist{Mean: 300}) // conservative 300
	b := w.AddTask("b", stoch.Dist{Mean: 600}) // conservative 600
	w.MustAddEdge(a, b, 100)                   // comm = 10 s
	ctx, err := newContext(w, p)
	if err != nil {
		t.Fatal(err)
	}
	oct, err := octTable(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Exit task: OCT = 0 everywhere.
	if oct[b][0] != 0 || oct[b][1] != 0 {
		t.Errorf("exit OCT %v", oct[b])
	}
	// OCT(a, cat0) = min( w(b,cat0)=60 [same cat, no comm],
	//                     w(b,cat1)=20 + comm 10 ) = 30.
	if oct[a][0] != 30 {
		t.Errorf("OCT(a, cat0) = %v, want 30", oct[a][0])
	}
	// OCT(a, cat1) = min( 60 + 10, 20 ) = 20.
	if oct[a][1] != 20 {
		t.Errorf("OCT(a, cat1) = %v, want 20", oct[a][1])
	}
}

func TestPeftProducesValidSchedules(t *testing.T) {
	p := platform.Default()
	for _, typ := range append(wfgen.AllPaperTypes(), wfgen.ExtendedTypes()...) {
		w := wfgen.MustGenerate(typ, 30, 1).WithSigmaRatio(0.5)
		s, err := mustByName(NamePeft).Plan(w, p, 0)
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if err := s.Validate(w, p.NumCategories()); err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		res, err := sim.RunDeterministic(w, p, s)
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		// PEFT's planner estimate must replay exactly, like the rest of
		// the family.
		rel := math.Abs(res.Makespan-s.EstMakespan) / s.EstMakespan
		if rel > 1e-9 {
			t.Errorf("%s: planner %.4f vs simulator %.4f", typ, s.EstMakespan, res.Makespan)
		}
	}
}

// TestPeftCompetitiveWithHeft: PEFT should be in HEFT's ballpark, and
// on at least one of the benchmark instances strictly better (the OCT
// lookahead is its entire point).
func TestPeftCompetitiveWithHeft(t *testing.T) {
	p := platform.Default()
	wins, total := 0, 0
	worstRatio := 0.0
	for _, typ := range wfgen.AllPaperTypes() {
		for seed := uint64(0); seed < 5; seed++ {
			w := wfgen.MustGenerate(typ, 60, seed).WithSigmaRatio(0.5)
			hs, err := Heft(w, p)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := mustByName(NamePeft).Plan(w, p, 0)
			if err != nil {
				t.Fatal(err)
			}
			hr, err := sim.RunDeterministic(w, p, hs)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := sim.RunDeterministic(w, p, ps)
			if err != nil {
				t.Fatal(err)
			}
			total++
			if pr.Makespan < hr.Makespan-1e-9 {
				wins++
			}
			if r := pr.Makespan / hr.Makespan; r > worstRatio {
				worstRatio = r
			}
		}
	}
	if worstRatio > 1.5 {
		t.Errorf("PEFT up to %.2f× worse than HEFT — implementation suspect", worstRatio)
	}
	t.Logf("PEFT beats HEFT on %d/%d instances; worst ratio %.3f", wins, total, worstRatio)
}

func TestPeftInRegistry(t *testing.T) {
	if len(AllExtended()) != len(All())+1 {
		t.Fatal("AllExtended must add exactly PEFT")
	}
	a, err := ByName(NamePeft)
	if err != nil {
		t.Fatal(err)
	}
	if a.NeedsBudget {
		t.Error("PEFT is budget-blind")
	}
	w := paperInstance(t, wfgen.Montage, 30, 0)
	if _, err := a.Plan(w, platform.Default(), 0); err != nil {
		t.Fatal(err)
	}
}

// TestReadyHeapMatchesScan: popping PEFT's ready heap while tasks are
// released gives the pick of the scan it replaced — the ready task of
// highest rank, the lowest ID among equal ranks — on ranks drawn from a
// few values (ties everywhere) and ±Inf.
func TestReadyHeapMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	values := []float64{math.Inf(-1), -1, 0, 0.5, 2, math.Inf(1)}
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(60)
		rank := make([]float64, n)
		for i := range rank {
			rank[i] = values[r.Intn(len(values))]
		}
		h := readyHeap{rank: rank}
		ready := make([]bool, n)
		next := 0
		release := func() {
			for k := r.Intn(4); k >= 0 && next < n; k-- {
				ready[next] = true
				h.push(wf.TaskID(next))
				next++
			}
		}
		release()
		for len(h.tasks) > 0 {
			want := -1
			for u := 0; u < n; u++ {
				if ready[u] && (want < 0 || rank[u] > rank[want]) {
					want = u
				}
			}
			if got := h.pop(); int(got) != want {
				t.Fatalf("trial %d: heap picks %d (rank %v), scan %d (rank %v)", trial, got, rank[got], want, rank[want])
			}
			ready[want] = false
			release()
		}
		if next != n {
			t.Fatalf("trial %d: %d of %d tasks released", trial, next, n)
		}
	}
}

// BenchmarkPeft times PEFT's plans at n = 1000 on the paper's families.
func BenchmarkPeft(b *testing.B) {
	p := platform.Default()
	for _, typ := range wfgen.AllPaperTypes() {
		w := wfgen.MustGenerate(typ, 1000, 1).WithSigmaRatio(0.5)
		b.Run(string(typ), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := peftOpt(w, p, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
