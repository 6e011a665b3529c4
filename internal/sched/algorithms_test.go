package sched

import (
	"math"
	"testing"

	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/sim"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

func paperInstance(t *testing.T, typ wfgen.Type, n int, seed uint64) *wf.Workflow {
	t.Helper()
	return wfgen.MustGenerate(typ, n, seed).WithSigmaRatio(0.5)
}

// cheapBudget returns the cost of the all-on-one-cheapest-VM schedule,
// the practical minimum budget.
func cheapBudget(t *testing.T, w *wf.Workflow, p *platform.Platform) float64 {
	t.Helper()
	order, err := w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	s := plan.New(w.NumTasks())
	s.ListT = order
	vm := s.AddVM(p.Cheapest())
	for _, id := range order {
		s.Assign(id, vm)
	}
	r, err := sim.RunDeterministic(w, p, s)
	if err != nil {
		t.Fatal(err)
	}
	return r.TotalCost
}

func TestBaselinesEqualBudgetVariantsAtInfiniteBudget(t *testing.T) {
	p := platform.Default()
	for _, typ := range wfgen.AllPaperTypes() {
		w := paperInstance(t, typ, 30, 2)
		huge := 1e9
		pairs := []struct {
			name     string
			base     func() (*plan.Schedule, error)
			budgeted func() (*plan.Schedule, error)
		}{
			{"minmin", func() (*plan.Schedule, error) { return mustByName(NameMinMin).Plan(w, p, 0) },
				func() (*plan.Schedule, error) { return mustByName(NameMinMinBudg).Plan(w, p, huge) }},
			{"heft", func() (*plan.Schedule, error) { return Heft(w, p) },
				func() (*plan.Schedule, error) { return HeftBudg(w, p, huge) }},
		}
		for _, pair := range pairs {
			a, err := pair.base()
			if err != nil {
				t.Fatal(err)
			}
			b, err := pair.budgeted()
			if err != nil {
				t.Fatal(err)
			}
			if len(a.TaskVM) != len(b.TaskVM) {
				t.Fatalf("%s/%s: shape mismatch", typ, pair.name)
			}
			for task := range a.TaskVM {
				if a.TaskVM[task] != b.TaskVM[task] {
					t.Errorf("%s/%s: task %d mapped to %d (baseline) vs %d (budgeted)",
						typ, pair.name, task, a.TaskVM[task], b.TaskVM[task])
					break
				}
			}
			if a.NumVMs() != b.NumVMs() {
				t.Errorf("%s/%s: VM counts differ (%d vs %d)", typ, pair.name, a.NumVMs(), b.NumVMs())
			}
		}
	}
}

func TestBudgetRespectedDeterministically(t *testing.T) {
	// §V headline: HEFTBUDG and MIN-MINBUDG enforce the budget. Under
	// the planner's own (conservative) weights this must hold for any
	// budget at least the cheapest schedule's cost.
	p := platform.Default()
	for _, typ := range wfgen.AllPaperTypes() {
		for seed := uint64(0); seed < 2; seed++ {
			w := paperInstance(t, typ, 30, seed)
			cheap := cheapBudget(t, w, p)
			for _, factor := range []float64{1.0, 1.05, 1.2, 1.6, 2.5, 8} {
				budget := cheap * factor
				for name, alg := range map[string]func(*wf.Workflow, *platform.Platform, float64) (*plan.Schedule, error){
					"minminbudg": mustByName(NameMinMinBudg).Plan, "heftbudg": HeftBudg,
				} {
					s, err := alg(w, p, budget)
					if err != nil {
						t.Fatal(err)
					}
					r, err := sim.RunDeterministic(w, p, s)
					if err != nil {
						t.Fatal(err)
					}
					if r.TotalCost > budget*(1+1e-9) {
						t.Errorf("%s on %s seed %d β=%.2f: cost %.4f > budget %.4f",
							name, typ, seed, factor, r.TotalCost, budget)
					}
				}
			}
		}
	}
}

func TestAllAlgorithmsSurviveZeroBudget(t *testing.T) {
	// Even an absurd budget must yield a complete, valid schedule (the
	// overrun shows up in the simulated cost, as in Figure 3's
	// validity percentages).
	p := platform.Default()
	w := paperInstance(t, wfgen.Montage, 30, 0)
	for _, alg := range All() {
		s, err := alg.Plan(w, p, 0)
		if err != nil {
			t.Errorf("%s: %v", alg.Name, err)
			continue
		}
		if err := s.Validate(w, p.NumCategories()); err != nil {
			t.Errorf("%s: invalid schedule: %v", alg.Name, err)
		}
	}
}

func TestHeftListIsTopological(t *testing.T) {
	p := platform.Default()
	w := paperInstance(t, wfgen.Montage, 60, 1)
	s, err := Heft(w, p)
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[wf.TaskID]int)
	for i, id := range s.ListT {
		pos[id] = i
	}
	for _, e := range w.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("ListT not topological: edge %d→%d", e.From, e.To)
		}
	}
}

func TestRefinementNeverWorsens(t *testing.T) {
	p := platform.Default()
	for _, typ := range wfgen.AllPaperTypes() {
		w := paperInstance(t, typ, 30, 1)
		cheap := cheapBudget(t, w, p)
		for _, factor := range []float64{1.1, 1.5, 3} {
			budget := cheap * factor
			base, err := HeftBudg(w, p, budget)
			if err != nil {
				t.Fatal(err)
			}
			baseRes, err := sim.RunDeterministic(w, p, base)
			if err != nil {
				t.Fatal(err)
			}
			for name, refined := range map[string]func(*wf.Workflow, *platform.Platform, float64) (*plan.Schedule, error){
				"heftbudg+": mustByName(NameHeftBudgPlus).Plan, "heftbudg+inv": mustByName(NameHeftBudgPlusInv).Plan,
			} {
				s, err := refined(w, p, budget)
				if err != nil {
					t.Fatal(err)
				}
				r, err := sim.RunDeterministic(w, p, s)
				if err != nil {
					t.Fatal(err)
				}
				if r.Makespan > baseRes.Makespan*(1+1e-9) {
					t.Errorf("%s on %s β=%.1f: %.2f worse than HEFTBUDG %.2f",
						name, typ, factor, r.Makespan, baseRes.Makespan)
				}
				if r.TotalCost > budget*(1+1e-9) {
					t.Errorf("%s on %s β=%.1f: cost %.4f > budget %.4f",
						name, typ, factor, r.TotalCost, budget)
				}
			}
		}
	}
}

func TestCGPlusImprovesWithinBudget(t *testing.T) {
	p := platform.Default()
	w := paperInstance(t, wfgen.Montage, 30, 0)
	cheap := cheapBudget(t, w, p)
	budget := cheap * 2
	cg, err := mustByName(NameCG).Plan(w, p, budget)
	if err != nil {
		t.Fatal(err)
	}
	cgRes, err := sim.RunDeterministic(w, p, cg)
	if err != nil {
		t.Fatal(err)
	}
	cgp, err := mustByName(NameCGPlus).Plan(w, p, budget)
	if err != nil {
		t.Fatal(err)
	}
	cgpRes, err := sim.RunDeterministic(w, p, cgp)
	if err != nil {
		t.Fatal(err)
	}
	if cgpRes.Makespan > cgRes.Makespan*(1+1e-9) {
		t.Errorf("CG+ %.2f worse than CG %.2f", cgpRes.Makespan, cgRes.Makespan)
	}
	if cgpRes.TotalCost > budget*(1+1e-9) {
		t.Errorf("CG+ cost %.4f > budget %.4f", cgpRes.TotalCost, budget)
	}
}

func TestCGHugsCheapSchedule(t *testing.T) {
	// §V-D3: "CG returns schedules that are close to the cheapest
	// possible schedule" — its cost should sit much nearer the cheap
	// anchor than HEFTBUDG's at the same (ample) budget.
	p := platform.Default()
	w := paperInstance(t, wfgen.Ligo, 30, 0)
	cheap := cheapBudget(t, w, p)
	budget := cheap * 1.05
	cg, err := mustByName(NameCG).Plan(w, p, budget)
	if err != nil {
		t.Fatal(err)
	}
	cgRes, err := sim.RunDeterministic(w, p, cg)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := Heft(w, p)
	if err != nil {
		t.Fatal(err)
	}
	hbRes, err := sim.RunDeterministic(w, p, hb)
	if err != nil {
		t.Fatal(err)
	}
	if cgRes.Makespan < hbRes.Makespan {
		t.Errorf("CG makespan %.1f beat unconstrained HEFT %.1f — not 'close to cheapest'",
			cgRes.Makespan, hbRes.Makespan)
	}
}

func TestByName(t *testing.T) {
	for _, a := range All() {
		got, err := ByName(a.Name)
		if err != nil || got.Name != a.Name {
			t.Errorf("ByName(%s) = %v, %v", a.Name, got.Name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestBestHostRespectsAllowance(t *testing.T) {
	p := budgetPlatform()
	w := budgetWF(t)
	ctx, err := newContext(w, p)
	if err != nil {
		t.Fatal(err)
	}
	st := newState(ctx)
	// Task a (conservative 100, extIn 500): on cheap VM the charged
	// cost is (500/10 + 100/10)·1 = 60; on the fast VM
	// (50 + 100/30)·4 ≈ 213.3. With allowance 100 only the cheap VM
	// fits; with allowance ∞ the fast VM wins on EFT.
	tight := st.bestHost(wf.TaskID(0), 100)
	if tight.cat != 0 {
		t.Errorf("tight allowance picked category %d", tight.cat)
	}
	if tight.cost > 100 {
		t.Errorf("tight pick costs %v", tight.cost)
	}
	loose := st.bestHost(wf.TaskID(0), math.Inf(1))
	if loose.cat != 1 {
		t.Errorf("infinite allowance picked category %d", loose.cat)
	}
	if loose.eft >= tight.eft {
		t.Errorf("fast host EFT %v not better than slow %v", loose.eft, tight.eft)
	}
}

func TestBestHostFallbackPrefersCheapest(t *testing.T) {
	p := budgetPlatform()
	w := budgetWF(t)
	ctx, err := newContext(w, p)
	if err != nil {
		t.Fatal(err)
	}
	st := newState(ctx)
	got := st.bestHost(wf.TaskID(0), 0) // nothing is affordable
	cands := st.appendCandidates(nil, wf.TaskID(0))
	for _, c := range cands {
		if c.cost < got.cost {
			t.Errorf("fallback cost %v, cheaper candidate %v exists", got.cost, c.cost)
		}
	}
}
