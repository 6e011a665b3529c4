package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/stoch"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// minMinReference is the naive O(n²·p·deg) MIN-MIN loop the optimized
// minMinPlan must match decision-for-decision. It lives in the test
// files only, and enumerates hosts with plain eval (evalBestHost), so
// it shares neither prepare's O(1) placement nor pickBest with the
// planner it checks.
func minMinReference(w *wf.Workflow, p *platform.Platform, info *BudgetInfo, opt Options) (*plan.Schedule, error) {
	ctx, err := newContextOpt(w, p, opt)
	if err != nil {
		return nil, err
	}
	st := newState(ctx)
	n := w.NumTasks()
	remaining := make([]int, n)
	ready := make([]bool, n)
	for t := 0; t < n; t++ {
		remaining[t] = w.NumPred(wf.TaskID(t))
		ready[t] = remaining[t] == 0
	}
	account := optPot{disabled: opt.DisablePot}
	listT := make([]wf.TaskID, 0, n)
	totalCost := 0.0
	for len(listT) < n {
		bestTask := wf.TaskID(-1)
		var bestCand candidate
		var bestAllowance float64
		for t := 0; t < n; t++ {
			if !ready[t] {
				continue
			}
			allowance := infinite
			if info != nil {
				allowance = account.allowance(info.Shares[t])
			}
			c := evalBestHost(st, wf.TaskID(t), allowance)
			if bestTask < 0 || less(c, bestCand) {
				bestTask, bestCand, bestAllowance = wf.TaskID(t), c, allowance
			}
		}
		if bestTask < 0 {
			return nil, errNoReadyTask(w.Name, len(listT), n)
		}
		st.assign(bestTask, bestCand)
		totalCost += bestCand.cost
		if info != nil {
			account.settle(bestAllowance, bestCand.cost)
		}
		ready[bestTask] = false
		listT = append(listT, bestTask)
		for _, e := range w.Succ(bestTask) {
			remaining[e.To]--
			if remaining[e.To] == 0 {
				ready[e.To] = true
			}
		}
	}
	out := st.extract(listT)
	out.EstCost = totalCost + initSpent(out, p)
	if info != nil {
		out.EstCost += info.DCReserve
	}
	return out, nil
}

// evalBestHost is bestHost enumerating every host with plain eval.
func evalBestHost(st *state, t wf.TaskID, allowance float64) candidate {
	sel := newSelector(allowance)
	for i := range st.vms {
		sel.add(st.eval(t, i, st.vms[i].cat))
	}
	for k := range st.ctx.p.Categories {
		sel.add(st.eval(t, -1, k))
	}
	return sel.pick()
}

func schedulesEqual(a, b *plan.Schedule) bool {
	if len(a.TaskVM) != len(b.TaskVM) || len(a.VMCats) != len(b.VMCats) {
		return false
	}
	for i := range a.TaskVM {
		if a.TaskVM[i] != b.TaskVM[i] {
			return false
		}
	}
	for i := range a.VMCats {
		if a.VMCats[i] != b.VMCats[i] {
			return false
		}
	}
	for i := range a.ListT {
		if a.ListT[i] != b.ListT[i] {
			return false
		}
	}
	return a.EstMakespan == b.EstMakespan
}

// TestMinMinFastMatchesReference checks decision-for-decision equality
// of the incremental MIN-MIN against the naive reference, across
// random DAGs, budgets and ablation options.
func TestMinMinFastMatchesReference(t *testing.T) {
	plats := equivPlatforms(t)
	f := func(seed int64, budgetRaw float64, disablePot, meanWeights, market bool) bool {
		p := plats["scalar"]
		if market {
			p = plats["market"]
		}
		r := rand.New(rand.NewSource(seed))
		w := randomWorkflow(r)
		opt := Options{DisablePot: disablePot, PlanWithMeanWeights: meanWeights}
		budget := budgetRaw
		if budget < 0 {
			budget = -budget
		}
		for budget > 1e4 {
			budget /= 1e4
		}
		info, err := computeBudgetOpt(w, p, budget, opt)
		if err != nil {
			return false
		}
		fast, err1 := minMinPlan(w, p, info, opt)
		slow, err2 := minMinReference(w, p, info, opt)
		if err1 != nil || err2 != nil {
			return (err1 == nil) == (err2 == nil)
		}
		if !schedulesEqual(fast, slow) {
			t.Logf("seed %d budget %v market %v: schedules differ", seed, budget, market)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestMinMinFastMatchesReferenceBaseline covers the budget-blind path
// (nil info) on the paper's families, on the paper's platform and on a
// two-provider market (per-category bandwidth, transfer latency).
func TestMinMinFastMatchesReferenceBaseline(t *testing.T) {
	plats := equivPlatforms(t)
	for _, pn := range []string{"scalar", "market"} {
		p := plats[pn]
		for _, typ := range wfgen.AllPaperTypes() {
			for seed := uint64(0); seed < 3; seed++ {
				w := paperInstance(t, typ, 30, seed)
				fast, err := minMinPlan(w, p, nil, Options{})
				if err != nil {
					t.Fatal(err)
				}
				slow, err := minMinReference(w, p, nil, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !schedulesEqual(fast, slow) {
					t.Errorf("%s %s seed %d: schedules differ", pn, typ, seed)
				}
			}
		}
	}
}

// FuzzMinMinMatchesReference: on the generators of
// TestMinMinFastMatchesReference*, MIN-MIN and MIN-MINBUDG plan as the
// naive loop does, decision for decision and to the bit of the cost
// estimate. gen picks the workflow and platform: a random DAG on the
// paper's platform or on the two-provider market, a DAG with zero-size
// edges on a platform with a +Inf-priced category, or a paper family at
// n = 20–40. level picks the budget: 0, the cheapest plan's cost, up to
// twice HEFT's budget-blind cost (frac), or no limit.
func FuzzMinMinMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		for gen := uint8(0); gen < 4; gen++ {
			f.Add(seed, gen, uint8(seed), 0.3*float64(seed), seed%2 == 0)
		}
	}
	plats := equivPlatforms(f)
	inf := infPricedPlatform()
	f.Fuzz(func(t *testing.T, seed int64, gen, level uint8, frac float64, disablePot bool) {
		r := rand.New(rand.NewSource(seed))
		var w *wf.Workflow
		p := plats["scalar"]
		switch gen % 4 {
		case 0:
			w = randomWorkflow(r)
		case 1:
			w, p = randomWorkflow(r), plats["market"]
		case 2:
			w, p = zeroEdgeWorkflow(r), inf
		default:
			types := wfgen.AllPaperTypes()
			w = paperInstance(t, types[r.Intn(len(types))], 20+10*r.Intn(3), uint64(r.Intn(100)))
			if r.Intn(2) == 0 {
				p = plats["market"]
			}
		}
		budget := math.Inf(1)
		switch level % 4 {
		case 0:
			budget = 0
		case 1:
			budget = cheapBudget(t, w, p)
		case 2:
			blind, err := Heft(w, p)
			if err != nil {
				t.Fatal(err)
			}
			if frac = math.Abs(frac); !(frac <= 2) {
				frac = 2
			}
			budget = cheapBudget(t, w, p) + frac*blind.EstCost
		}
		opt := Options{DisablePot: disablePot}
		info, err := computeBudgetOpt(w, p, budget, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range []*BudgetInfo{nil, info} {
			fast, err1 := minMinPlan(w, p, in, opt)
			slow, err2 := minMinReference(w, p, in, opt)
			if err1 != nil || err2 != nil {
				t.Fatalf("seed %d gen %d: errors %v and %v", seed, gen, err1, err2)
			}
			if !schedulesEqual(fast, slow) || math.Float64bits(fast.EstCost) != math.Float64bits(slow.EstCost) {
				t.Fatalf("seed %d gen %d budget %v DisablePot %v budgeted %v: plans differ", seed, gen, budget, disablePot, in != nil)
			}
		}
	})
}

// assertMinMinMatches plans w under every budget and both DisablePot
// settings with the incremental and the naive loop and requires the
// same plan.
func assertMinMinMatches(t *testing.T, label string, w *wf.Workflow, p *platform.Platform, budgets []float64) {
	t.Helper()
	for _, budget := range budgets {
		for _, disablePot := range []bool{false, true} {
			opt := Options{DisablePot: disablePot}
			info, err := computeBudgetOpt(w, p, budget, opt)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := minMinPlan(w, p, info, opt)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := minMinReference(w, p, info, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !schedulesEqual(fast, slow) || fast.EstCost != slow.EstCost {
				t.Errorf("%s budget %v DisablePot %v: schedules differ", label, budget, disablePot)
			}
		}
	}
}

// minMinBudgets spans a workflow's budget range: 0 (every allowance
// is spent, so every pick is a fallback), the reserves alone, the
// reserves plus a quarter, a half, one and two times HEFT's
// budget-blind cost (where allowances cross candidate costs and cached
// picks are re-checked), and no limit at all.
func minMinBudgets(t *testing.T, w *wf.Workflow, p *platform.Platform) []float64 {
	t.Helper()
	info, err := ComputeBudget(w, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	reserves := info.DCReserve + info.InitReserve
	blind, err := Heft(w, p)
	if err != nil {
		t.Fatal(err)
	}
	out := []float64{0, reserves}
	for _, f := range []float64{0.25, 0.5, 1, 2} {
		out = append(out, reserves+f*blind.EstCost)
	}
	return append(out, math.Inf(1))
}

// TestMinMinFastMatchesReferenceBudgeted pins the cached picks on the
// paper's families at the sizes the figures and Table III use, across
// the whole budget range and with the pot on and off.
//
// The market platform runs at n = 90 only: the naive loop is the cost.
func TestMinMinFastMatchesReferenceBudgeted(t *testing.T) {
	plats := equivPlatforms(t)
	sizes := []int{90, 300}
	if testing.Short() || raceEnabled {
		sizes = sizes[:1]
	}
	for _, typ := range wfgen.AllPaperTypes() {
		for _, n := range sizes {
			p := plats["scalar"]
			w := paperInstance(t, typ, n, 1)
			assertMinMinMatches(t, fmt.Sprintf("%s n=%d", typ, n), w, p, minMinBudgets(t, w, p))
		}
		p := plats["market"]
		w := paperInstance(t, typ, 90, 1)
		assertMinMinMatches(t, fmt.Sprintf("market %s n=90", typ), w, p, minMinBudgets(t, w, p))
	}
}

// tiePlatform has two categories with identical speed and price, so
// fresh VMs of either tie exactly, and timings that are exact in
// binary floating point.
func tiePlatform() *platform.Platform {
	return &platform.Platform{
		Categories: []platform.Category{
			{Name: "a", Speed: 1e9, CostPerSec: 0.001, InitCost: 0.0001},
			{Name: "b", Speed: 1e9, CostPerSec: 0.001, InitCost: 0.0001},
		},
		Bandwidth: 1e9,
		BootTime:  8,
	}
}

// TestMinMinTiesMatchReference: exact EFT/cost ties between two used
// VMs, between a used and a fresh VM, and between fresh VMs of two
// categories must resolve as pickBest does, first in enumeration
// order, whether a pick is scanned afresh or kept from the cache.
//
// Budget-blind, P (4 s) boots VM 0 at 12 s (category a ties a2), and
// Q1, Q2 (13 s) boot VMs 1 and 2, ready at 21 s. R (20 s) follows P
// on VM 0 over a 10 GB edge. X (24 s) follows P over a 1 GB edge,
// which reaches the datacenter at 13 s: on VM 1 or VM 2 it stages it
// from 21 s, and on a fresh VM it boots from 13 s, so all four end at
// 46 s at the same cost. X takes VM 1. The budgeted runs reuse the
// ties: every placement without an idle gap costs the same per second.
func TestMinMinTiesMatchReference(t *testing.T) {
	p := tiePlatform()
	const gi = 1e9
	w := wf.New("ties")
	task := func(name string, seconds float64) wf.TaskID {
		return w.AddTask(name, stoch.Dist{Mean: seconds * gi})
	}
	pt, q1, q2 := task("P", 4), task("Q1", 13), task("Q2", 13)
	r, x := task("R", 20), task("X", 24)
	w.MustAddEdge(pt, r, 10*gi)
	w.MustAddEdge(pt, x, gi)

	out, err := minMinPlan(w, p, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[wf.TaskID]int{pt: 0, q1: 1, q2: 2, r: 0, x: 1}
	for id, vm := range want {
		if out.TaskVM[id] != vm {
			t.Errorf("task %s on VM %d, want %d (plan %v)", w.Task(id).Name, out.TaskVM[id], vm, out.TaskVM)
		}
	}
	for vm, cat := range out.VMCats {
		if cat != 0 {
			t.Errorf("VM %d of category %d, want 0 (a ties a2)", vm, cat)
		}
	}
	assertMinMinMatches(t, "ties", w, p, []float64{0, 0.02, 0.04, 0.06, 0.08, 0.1, math.Inf(1)})
}

// TestPickCacheMatchesPickBest drives a ready task's two cached picks
// through random candidate updates and allowances the way minMinPlan
// does — use the first pick, else swap in the second, else re-scan —
// and requires pickBest's answer after every step. Wherever the caches
// bound the answer's EFT from below, pickBest's answer must finish no
// earlier. Metrics are drawn from a few small integers, so exact EFT
// and cost ties, between used VMs and between a used and a fresh VM,
// are the common case; now and then one is NaN, which no order
// survives. The updates are not monotone: a booked VM's candidate may
// finish earlier or cost less than before.
func TestPickCacheMatchesPickBest(t *testing.T) {
	const cats = 2
	r := rand.New(rand.NewSource(1))
	metric := func() float64 {
		if r.Intn(60) == 0 {
			return math.NaN()
		}
		return float64(1 + r.Intn(4))
	}
	// finite counts the steps with a finite bound, bounded those where
	// a cacheBound gave it, kept the refreshes where a fallback
	// survived a candidate at least as cheap; both new states must occur.
	steps, finite, bounded, kept := 0, 0, 0, 0
	for trial := 0; trial < 20000; trial++ {
		var used, fresh []candidate
		for v := r.Intn(4); v > 0; v-- {
			used = append(used, candidate{vm: len(used), cat: r.Intn(cats), eft: metric(), cost: metric()})
		}
		for k := 0; k < cats; k++ {
			fresh = append(fresh, candidate{vm: -1, cat: k, eft: metric(), cost: metric()})
		}
		var picks [2]pickCache
		e, alt := &picks[0], &picks[1]
		for step := 0; step < 30; step++ {
			steps++
			a := float64(r.Intn(10)) / 2 // 0 is below every cost
			if r.Intn(8) == 0 {
				a = math.Inf(1)
			}
			lb := max(e.bound(a), alt.bound(a))
			want := pickBest(used, fresh, a)
			if !math.IsInf(lb, -1) {
				finite++
				if e.state == cacheBound && e.bound(a) == lb || alt.state == cacheBound && alt.bound(a) == lb {
					bounded++
				}
				if !(want.eft >= lb) {
					t.Fatalf("trial %d step %d, allowance %v: bound %v above pickBest %+v on %+v then %+v", trial, step, a, lb, want, used, fresh)
				}
			}
			deferred := false
			switch {
			case e.holds(a):
			case alt.holds(a):
				*e, *alt = *alt, *e
			case !math.IsInf(lb, -1) && r.Intn(2) == 0:
				// minMinPlan defers a task whose bound loses the round:
				// no re-scan, the caches live on.
				deferred = true
			default:
				if e.state == cachePick {
					*alt = *e
				}
				e.repick(used, fresh, a)
			}
			if !deferred && !sameBits(e.c, want) {
				t.Fatalf("trial %d step %d, allowance %v: cached pick %+v, pickBest %+v on %+v then %+v", trial, step, a, e.c, want, used, fresh)
			}
			// Book one VM: an existing one gets a new candidate in
			// place, a new one is appended to the used part.
			c := candidate{vm: r.Intn(len(used) + 1), eft: metric(), cost: metric()}
			if c.vm == len(used) {
				c.cat = r.Intn(cats)
				used = append(used, c)
			} else {
				c.cat = used[c.vm].cat
				used[c.vm] = c
			}
			for _, p := range []*pickCache{e, alt} {
				fallback := p.state == cachePick && math.IsInf(p.lo, -1) && c.cost <= p.c.cost
				p.refresh(c)
				if fallback && p.state == cachePick {
					kept++
				}
			}
		}
	}
	t.Logf("%d steps: bound finite at %d, %d of them from a cacheBound; a fallback kept %d refreshes", steps, finite, bounded, kept)
	if bounded == 0 || kept == 0 {
		t.Errorf("the random walk missed a cache state: %d bounded steps, %d kept fallbacks", bounded, kept)
	}
}

// TestMinMinFastMatchesReferenceNaNCost plans random DAGs with
// zero-size edges on a platform with a +Inf-priced category, where a
// placement there costs 0·∞, NaN. Both loops must count such a
// candidate as unaffordable, as Algorithm 2's selector does.
func TestMinMinFastMatchesReferenceNaNCost(t *testing.T) {
	p := infPricedPlatform()
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		w := zeroEdgeWorkflow(r)
		cheap := cheapBudget(t, w, p)
		assertMinMinMatches(t, fmt.Sprintf("zero-edges/%d", i), w, p, []float64{0, cheap, 2 * cheap, 4 * cheap, math.Inf(1)})
	}
}

// TestUnmovedByLeavesCache: whenever unmovedBy says that no candidate
// on a VM finishing after a bound moves a cache, refreshing the cache
// with such a candidate changes nothing. The caches come from random
// candidate lists, re-scans and refreshes, as in
// TestPickCacheMatchesPickBest, with integer metrics so that the
// candidate often finishes exactly at the bound.
func TestUnmovedByLeavesCache(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	metric := func() float64 { return float64(1 + r.Intn(4)) }
	skipped := 0
	for trial := 0; trial < 20000; trial++ {
		var used, fresh []candidate
		for v := r.Intn(4); v > 0; v-- {
			used = append(used, candidate{vm: len(used), cat: r.Intn(2), eft: metric(), cost: metric()})
		}
		for k := 0; k < 2; k++ {
			fresh = append(fresh, candidate{vm: -1, cat: k, eft: metric(), cost: metric()})
		}
		var e pickCache
		e.repick(used, fresh, float64(r.Intn(10))/2)
		for step := 0; step < 5; step++ {
			c := candidate{vm: r.Intn(len(used) + 1), cat: r.Intn(2), eft: metric(), cost: metric()}
			lb := c.eft - float64(r.Intn(2))
			before := e
			moved := !e.unmovedBy(c.vm, lb)
			e.refresh(c)
			if !moved {
				skipped++
				if e != before {
					t.Fatalf("trial %d: unmovedBy(%d, %v) on %+v, but refresh(%+v) made it %+v", trial, c.vm, lb, before, c, e)
				}
			}
		}
	}
	if skipped == 0 {
		t.Error("no refresh was ever skippable")
	}
}
