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

func TestTCTFValue(t *testing.T) {
	// Candidates: slow-cheap (eft 100, cost 1) vs fast-expensive
	// (eft 50, cost 4), sub-budget 5.
	slow := candidate{eft: 100, cost: 1}
	fast := candidate{eft: 50, cost: 4}
	sub := 5.0
	// Time(slow) = 0, Time(fast) = 1;
	// Cost(slow) = (5-1)/(5-1) = 1, Cost(fast) = (5-4)/(5-1) = 0.25.
	vSlow := tctfValue(slow, sub, 1, 50, 100)
	vFast := tctfValue(fast, sub, 1, 50, 100)
	if vSlow != 0 {
		t.Errorf("TCTF(slow) = %v, want 0", vSlow)
	}
	if vFast != 4 {
		t.Errorf("TCTF(fast) = %v, want 4", vFast)
	}
}

func TestTCTFDegenerateDenominators(t *testing.T) {
	c := candidate{eft: 10, cost: 2}
	// All candidates identical: Time and Cost factors both 1.
	if got := tctfValue(c, 2, 2, 10, 10); got != 1 {
		t.Errorf("degenerate TCTF = %v, want 1", got)
	}
	// Cost factor would be zero (candidate consumes the whole
	// sub-budget): guarded, finite, and large.
	if got := tctfValue(candidate{eft: 5, cost: 4}, 4, 2, 5, 10); math.IsInf(got, 0) || got <= 0 {
		t.Errorf("zero-cost-factor TCTF = %v", got)
	}
}

func TestPickTCTFPrefersFastWithinBudget(t *testing.T) {
	cands := []candidate{
		{vm: 0, eft: 100, cost: 1},
		{vm: 1, eft: 50, cost: 4},
		{vm: 2, eft: 40, cost: 9}, // unaffordable
	}
	got := pickTCTF(cands, 5)
	if got.vm != 1 {
		t.Errorf("picked vm %d, want the fast affordable one (1)", got.vm)
	}
}

func TestPickTCTFFallbackIsEager(t *testing.T) {
	// Nothing affordable: BDT's eager fallback takes the smallest ECT
	// regardless of cost.
	cands := []candidate{
		{vm: 0, eft: 100, cost: 10},
		{vm: 1, eft: 50, cost: 40},
	}
	got := pickTCTF(cands, 5)
	if got.vm != 1 {
		t.Errorf("fallback picked vm %d, want the fastest (1)", got.vm)
	}
}

// TestPickTCTFNaNCostIsUnaffordable: a NaN cost (a +Inf price times a
// zero-size edge) is never within the sub-budget, and it sets neither
// ct_min nor, as the first candidate, the folds' start: the pick is
// the fresh VM that pickBest also takes, not the NaN one on EFT.
func TestPickTCTFNaNCostIsUnaffordable(t *testing.T) {
	cands := []candidate{
		{vm: 0, eft: 50, cost: math.NaN()},
		{vm: 1, eft: 100, cost: 1},
		{vm: -1, eft: 60, cost: 2},
	}
	got := pickTCTF(cands, 10)
	if want := pickBest(cands[:2], cands[2:], 10); !sameBits(got, want) || got.vm != -1 {
		t.Errorf("picked %+v, want the fresh VM %+v", got, want)
	}
	// Nothing else affordable: the eager fallback takes the fastest.
	if got := pickTCTF(cands, 0.5); got.vm != 0 {
		t.Errorf("fallback picked %+v, want the fastest (VM 0)", got)
	}
}

func TestClosestCategory(t *testing.T) {
	p := budgetPlatform() // speeds 10 (cost 1/s) and 30 (cost 4/s)
	w := wf.New("c")
	w.AddTask("a", stoch.Dist{Mean: 300}) // conservative 300
	ctx, err := newContext(w, p)
	if err != nil {
		t.Fatal(err)
	}
	// Compute costs: cat0 = 300/10·1 = 30; cat1 = 300/30·4 = 40.
	if got := closestCategory(ctx, 0, 30); got != 0 {
		t.Errorf("share 30 → category %d, want 0", got)
	}
	if got := closestCategory(ctx, 0, 40); got != 1 {
		t.Errorf("share 40 → category %d, want 1", got)
	}
	if got := closestCategory(ctx, 0, 34); got != 0 {
		t.Errorf("share 34 → category %d, want 0 (|30-34| < |40-34|)", got)
	}
	if got := closestCategory(ctx, 0, 36); got != 1 {
		t.Errorf("share 36 → category %d, want 1", got)
	}
}

func TestCGGlobalFactorExtremes(t *testing.T) {
	p := platform.Default()
	w := paperInstance(t, wfgen.Montage, 30, 0)
	// gb clamps to 0 at (sub-)minimal budgets → cheapest category for
	// every task; to 1 at huge budgets → most expensive category.
	low, err := mustByName(NameCG).Plan(w, p, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range low.VMCats {
		if cat != 0 {
			t.Fatalf("low-budget CG used category %d", cat)
		}
	}
	high, err := mustByName(NameCG).Plan(w, p, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range high.VMCats {
		if cat != p.NumCategories()-1 {
			t.Fatalf("high-budget CG used category %d", cat)
		}
	}
}

func TestBDTLevelOrdering(t *testing.T) {
	p := platform.Default()
	w := paperInstance(t, wfgen.Montage, 30, 0)
	s, err := mustByName(NameBDT).Plan(w, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	level, _, err := w.Levels()
	if err != nil {
		t.Fatal(err)
	}
	// ListT must be non-decreasing in level: BDT schedules level by
	// level.
	prev := -1
	for _, task := range s.ListT {
		if level[task] < prev {
			t.Fatalf("task %d (level %d) scheduled after level %d", task, level[task], prev)
		}
		prev = level[task]
	}
}

func TestCGPlusTerminates(t *testing.T) {
	// CG+ must terminate even when every candidate move is rejected
	// (tiny budget) and when many moves are possible (huge budget).
	p := platform.Default()
	w := paperInstance(t, wfgen.CyberShake, 30, 1)
	for _, budget := range []float64{0.001, 5, 1e5} {
		s, err := mustByName(NameCGPlus).Plan(w, p, budget)
		if err != nil {
			t.Fatalf("budget %v: %v", budget, err)
		}
		if err := s.Validate(w, p.NumCategories()); err != nil {
			t.Fatalf("budget %v: %v", budget, err)
		}
	}
}

func TestBDTEagerOverspendSignature(t *testing.T) {
	// At the minimum budget BDT must deliver a near-baseline makespan
	// while blowing the budget — its published signature (Figure 3).
	p := platform.Default()
	w := paperInstance(t, wfgen.Montage, 30, 0)
	cheap := cheapBudget(t, w, p)
	bdt, err := mustByName(NameBDT).Plan(w, p, cheap)
	if err != nil {
		t.Fatal(err)
	}
	bdtRes, err := sim.RunDeterministic(w, p, bdt)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := HeftBudg(w, p, cheap)
	if err != nil {
		t.Fatal(err)
	}
	hbRes, err := sim.RunDeterministic(w, p, hb)
	if err != nil {
		t.Fatal(err)
	}
	if bdtRes.Makespan >= hbRes.Makespan {
		t.Errorf("BDT makespan %.1f not faster than HEFTBUDG's %.1f at minimum budget",
			bdtRes.Makespan, hbRes.Makespan)
	}
	if bdtRes.TotalCost <= cheap {
		t.Errorf("BDT respected the minimum budget ($%.4f ≤ $%.4f) — it should overspend eagerly",
			bdtRes.TotalCost, cheap)
	}
	if hbRes.TotalCost > cheap*(1+1e-9) {
		t.Errorf("HEFTBUDG overspent the minimum budget")
	}
}
