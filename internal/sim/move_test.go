package sim_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"budgetwf/internal/exp"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/sched"
	"budgetwf/internal/sim"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// moveTarget names the i-th move of Algorithm 5's candidate list for a
// schedule of used VMs and numCats categories: a used VM, then a fresh
// VM of each category.
func moveTarget(i, used int) (vm, cat int) {
	if i >= used {
		return -1, i - used
	}
	return i, 0
}

// checkScoreMoves holds ScoreMove, for every move of every stride-th
// task of s, to Mover.Move → Rebind → Score bit for bit: unbounded, it
// scores every candidate; bounded by the incumbent's makespan, it cuts
// only candidates whose full makespan reaches that bound; bounded one
// ulp above the candidate's own makespan, where a lower bound without
// its rounding margin could reach the bound, it cuts none. The calls
// alternate, and tasks come in ID order, not ListT order, so every
// checkpoint is restored many times. The Runner first scores a move of
// every task on one VM of the cheapest category, whose tails are longer
// than s's, and is then rebound to s.
func checkScoreMoves(t testing.TB, name string, w *wf.Workflow, p *platform.Platform, s *plan.Schedule, stride int) (moves, cut int) {
	t.Helper()
	weights := sim.ConservativeWeights(w)
	serial := plan.New(w.NumTasks())
	serial.ListT = s.ListT
	one := serial.AddVM(p.Cheapest())
	for _, u := range s.ListT {
		serial.Assign(u, one)
	}
	r, err := sim.NewRunner(w, p, serial)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if _, _, err := r.Score(weights); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if _, _, _, err := r.ScoreMove(s.ListT[0], -1, 0, math.Inf(1)); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := r.Rebind(s); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ref, err := sim.NewRunner(w, p, s)
	if err != nil {
		t.Fatal(err)
	}
	bound, _, err := r.Score(weights)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	mover := plan.NewMover(w.NumTasks())
	used := s.NumVMs()
	for task := 0; task < w.NumTasks(); task += stride {
		tid := wf.TaskID(task)
		for i := 0; i < used+p.NumCategories(); i++ {
			if i == s.TaskVM[tid] {
				continue
			}
			vm, cat := moveTarget(i, used)
			if err := ref.Rebind(mover.Move(s, tid, vm, cat)); err != nil {
				t.Fatalf("%s: task %d → (%d, %d): %v", name, task, vm, cat, err)
			}
			wantMk, wantCost, err := ref.Score(weights)
			if err != nil {
				t.Fatalf("%s: task %d → (%d, %d): reference: %v", name, task, vm, cat, err)
			}
			moves++
			mk, cost, ok, err := r.ScoreMove(tid, vm, cat, math.Inf(1))
			if err != nil || !ok || math.Float64bits(mk) != math.Float64bits(wantMk) ||
				math.Float64bits(cost) != math.Float64bits(wantCost) {
				t.Fatalf("%s: task %d → (%d, %d): ScoreMove = (%v, %v, %v, %v), Score = (%v, %v)",
					name, task, vm, cat, mk, cost, ok, err, wantMk, wantCost)
			}
			mk, cost, ok, err = r.ScoreMove(tid, vm, cat, bound)
			switch {
			case err != nil:
				t.Fatalf("%s: task %d → (%d, %d), bound %v: %v", name, task, vm, cat, bound, err)
			case !ok:
				cut++
				if wantMk < bound {
					t.Fatalf("%s: task %d → (%d, %d): cut at bound %v, makespan %v", name, task, vm, cat, bound, wantMk)
				}
			case math.Float64bits(mk) != math.Float64bits(wantMk) || math.Float64bits(cost) != math.Float64bits(wantCost):
				t.Fatalf("%s: task %d → (%d, %d), bound %v: ScoreMove = (%v, %v), Score = (%v, %v)",
					name, task, vm, cat, bound, mk, cost, wantMk, wantCost)
			}
			above := math.Nextafter(wantMk, math.Inf(1))
			mk, cost, ok, err = r.ScoreMove(tid, vm, cat, above)
			if err != nil || !ok || math.Float64bits(mk) != math.Float64bits(wantMk) ||
				math.Float64bits(cost) != math.Float64bits(wantCost) {
				t.Fatalf("%s: task %d → (%d, %d), bound %v one ulp above its makespan: ScoreMove = (%v, %v, %v, %v), Score = (%v, %v)",
					name, task, vm, cat, above, mk, cost, ok, err, wantMk, wantCost)
			}
		}
	}
	return moves, cut
}

// moveIncumbents calls check with the HEFTBUDG and CG schedules of the
// paper families at n ∈ {12, 30, 60, 120} (every task up to n = 30, a
// twelfth of them beyond) on the platforms that take the forward pass,
// and, on every platform, the random schedules of 200 random DAGs.
func moveIncumbents(t *testing.T, check func(name string, w *wf.Workflow, p *platform.Platform, s *plan.Schedule, stride int)) {
	sizes, randomDAGs := []int{12, 30, 60, 120}, int64(200)
	if testing.Short() {
		sizes, randomDAGs = []int{12, 30}, 40
	}
	for _, pl := range scorePlatforms() {
		if pl.name == "fluid" || pl.name == "surcharge" {
			continue // the event-engine fallback: random cases cover it
		}
		for _, typ := range []wfgen.Type{wfgen.CyberShake, wfgen.Ligo, wfgen.Montage} {
			for _, n := range sizes {
				if typ == wfgen.Ligo && n == 12 {
					n = 20 // LIGO sizes are multiples of 10
				}
				w := wfgen.MustGenerate(typ, n, uint64(n)).WithSigmaRatio(0.5)
				anchors, err := exp.ComputeAnchors(w, pl.p)
				if err != nil {
					t.Fatal(err)
				}
				stride := 1
				if n > 30 {
					stride = n / 12
				}
				for _, alg := range []sched.Name{sched.NameHeftBudg, sched.NameCG} {
					a, err := sched.ByName(alg)
					if err != nil {
						t.Fatal(err)
					}
					s, err := a.Plan(w, pl.p, 2*anchors.CheapCost)
					if err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("%s/%s/n%d/%s", pl.name, typ, n, alg), w, pl.p, s, stride)
				}
			}
		}
	}
	for seed := int64(0); seed < randomDAGs; seed++ {
		w, s, p := randomScoreCase(rand.New(rand.NewSource(seed)))
		check(fmt.Sprintf("random/%d", seed), w, p, s, 1)
	}
}

// TestScoreMoveMatchesScore: every refinement move of planned and
// random incumbents scores as the candidate built and bound does.
func TestScoreMoveMatchesScore(t *testing.T) {
	moves, cut := 0, 0
	moveIncumbents(t, func(name string, w *wf.Workflow, p *platform.Platform, s *plan.Schedule, stride int) {
		m, c := checkScoreMoves(t, name, w, p, s, stride)
		moves, cut = moves+m, cut+c
	})
	t.Logf("%d moves bit-equal, %d of them cut at the incumbent's makespan", moves, cut)
	if cut == 0 || cut == moves {
		t.Errorf("%d of %d moves cut: the bound went untested", cut, moves)
	}
}

// FuzzScoreMoveMatchesScore drives the same comparison from random
// DAGs, random schedules and the scorePlatforms.
func FuzzScoreMoveMatchesScore(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, 1 << 40, -7} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		w, s, p := randomScoreCase(rand.New(rand.NewSource(seed)))
		checkScoreMoves(t, fmt.Sprintf("seed %d", seed), w, p, s, 1)
	})
}

// TestMoveCandidatesValid: ScoreMove's range check accepts exactly the
// moves whose Mover candidate passes the full plan.Schedule.Validate,
// and rejects the targets no Mover candidate has, and any schedule
// whose ListT is not a topological order.
func TestMoveCandidatesValid(t *testing.T) {
	checked := 0
	moveIncumbents(t, func(name string, w *wf.Workflow, p *platform.Platform, s *plan.Schedule, stride int) {
		r, err := sim.NewRunner(w, p, s)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Score(sim.ConservativeWeights(w)); err != nil {
			t.Fatal(err)
		}
		mover, used := plan.NewMover(w.NumTasks()), s.NumVMs()
		for task := 0; task < w.NumTasks(); task += stride {
			tid := wf.TaskID(task)
			for i := 0; i < used+p.NumCategories(); i++ {
				if i == s.TaskVM[tid] {
					continue
				}
				vm, cat := moveTarget(i, used)
				valid := mover.Move(s, tid, vm, cat).Validate(w, p.NumCategories())
				if _, _, _, err := r.ScoreMove(tid, vm, cat, math.Inf(1)); (err == nil) != (valid == nil) {
					t.Fatalf("%s: task %d → (%d, %d): ScoreMove error %v, Validate %v", name, task, vm, cat, err, valid)
				}
				checked++
			}
			for _, bad := range [][2]int{{s.TaskVM[tid], 0}, {used, 0}, {-1, -1}, {-1, p.NumCategories()}} {
				if _, _, _, err := r.ScoreMove(tid, bad[0], bad[1], math.Inf(1)); err == nil {
					t.Fatalf("%s: task %d → (%d, %d) accepted", name, task, bad[0], bad[1])
				}
			}
		}
		if _, _, _, err := r.ScoreMove(wf.TaskID(w.NumTasks()), -1, 0, math.Inf(1)); err == nil {
			t.Fatalf("%s: a task past the workflow accepted", name)
		}
	})
	t.Logf("%d Mover candidates checked", checked)

	// A ListT against an edge: the per-VM orders can still be valid.
	w := wfgen.MustGenerate(wfgen.Montage, 20, 1)
	s, err := exp.CheapestSchedule(w, platform.Default())
	if err != nil {
		t.Fatal(err)
	}
	s.ListT[0], s.ListT[len(s.ListT)-1] = s.ListT[len(s.ListT)-1], s.ListT[0]
	r, err := sim.NewRunner(w, platform.Default(), s)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Score(sim.ConservativeWeights(w)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := r.ScoreMove(0, -1, 0, math.Inf(1)); err == nil {
		t.Fatal("a ListT that is not topological accepted")
	}
}
