package sched

import (
	"bytes"
	stdcontext "context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"budgetwf/internal/market"
	"budgetwf/internal/obs"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/sim"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// equivPlatforms are the three engine regimes the evaluator must
// reproduce: the paper's scalar platform, a finite datacenter
// bandwidth (the fluid max-min engine) and a two-provider market with
// a spot category, transfer surcharges and per-provider boot times.
func equivPlatforms(t testing.TB) map[string]*platform.Platform {
	t.Helper()
	fluid := platform.Default()
	fluid.DCBandwidth = 3 * fluid.Bandwidth
	boot := 30.0
	mkt, err := (&market.Spec{
		Providers: []market.ProviderSpec{
			{Name: "alpha", Categories: []market.CategorySpec{
				{Name: "small", Speed: 1e9, CostPerSec: 6e-6, InitCost: 0.0001,
					Spot: &market.SpotSpec{Discount: 0.6, RevocationsPerHour: 4}},
				{Name: "large", Speed: 4e9, CostPerSec: 48e-6, InitCost: 0.0001},
			}},
			{Name: "beta", Bandwidth: 250e6, BootTimeSec: &boot, Categories: []market.CategorySpec{
				{Name: "std", Speed: 2e9, CostPerSec: 18e-6, InitCost: 0.0002},
			}},
		},
		Transfer: [][]market.Link{
			{{}, {CostPerGB: 0.02, LatencySec: 0.5}},
			{{CostPerGB: 0.01, LatencySec: 0.25}, {}},
		},
		Home: "beta",
	}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*platform.Platform{"scalar": platform.Default(), "fluid": fluid, "market": mkt}
}

func scheduleJSON(t testing.TB, s *plan.Schedule) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// sameResult reports whether two simulations agree on every figure the
// refinement planners read, bit for bit.
func sameResult(a, b *sim.Result) bool {
	return a.Makespan == b.Makespan && a.TotalCost == b.TotalCost &&
		reflect.DeepEqual(a.VMs, b.VMs) && reflect.DeepEqual(a.Blames, b.Blames) &&
		reflect.DeepEqual(a.Tasks, b.Tasks)
}

// moveStats counts the corner cases checkMovesMatchReference met.
type moveStats struct{ moves, emptied, noops int }

// checkMovesMatchReference compares, for the moves of every stride-th
// task of base, the evaluator's scores and the candidate it builds with
// the reference path Clone → CompactVMs → sim.Run.
func checkMovesMatchReference(t testing.TB, w *wf.Workflow, p *platform.Platform, base *plan.Schedule, stride int, st *moveStats) {
	t.Helper()
	ev, res, err := newMoveEval(w, p, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseMakespan, baseCost := res.Makespan, res.TotalCost
	unbounded := math.Inf(1)
	for task := 0; task < w.NumTasks(); task += stride {
		tid := wf.TaskID(task)
		want := moveCandidatesReference(base, tid, p.NumCategories())
		i := 0
		err := ev.eachMove(tid, &unbounded, func(vm, cat int, makespan, cost float64) {
			ref := want[i]
			i++
			st.moves++
			cand := ev.candidate(tid, vm, cat)
			if !reflect.DeepEqual(cand.TaskVM, ref.TaskVM) || !reflect.DeepEqual(cand.VMCats, ref.VMCats) {
				t.Fatalf("task %d, candidate %d: schedule differs:\n got %v %v\nwant %v %v",
					task, i-1, cand.TaskVM, cand.VMCats, ref.TaskVM, ref.VMCats)
			}
			rr, err := sim.Run(w, p, ref, ev.weights)
			if err != nil {
				t.Fatalf("task %d, candidate %d: reference simulation: %v", task, i-1, err)
			}
			// The candidate the evaluator builds for a kept move must also
			// reproduce the reference's full Result (CG+ reads the
			// critical path off it).
			r, err := sim.Run(w, p, cand, ev.weights)
			if err != nil {
				t.Fatalf("task %d, candidate %d: built candidate's simulation: %v", task, i-1, err)
			}
			if makespan != rr.Makespan || cost != rr.TotalCost || !sameResult(r, rr) {
				t.Fatalf("task %d, candidate %d: scored %v %v, simulated %v %v, reference %v %v (or VMs/Blames/Tasks differ)",
					task, i-1, makespan, cost, r.Makespan, r.TotalCost, rr.Makespan, rr.TotalCost)
			}
			if fresh := i-1 >= len(want)-p.NumCategories(); ref.NumVMs() < base.NumVMs() || (fresh && ref.NumVMs() == base.NumVMs()) {
				st.emptied++
				// A VM's only task sent to a fresh VM of the same category
				// is the incumbent under another VM numbering: its makespan
				// must tie exactly, so the strict "shorter than the
				// incumbent" tests can never take it. (The cost sums the
				// same VM bills in another order, so it ties to rounding.)
				if fresh && cand.VMCats[cand.TaskVM[tid]] == base.VMCats[base.TaskVM[tid]] {
					st.noops++
					if r.Makespan != baseMakespan || math.Abs(r.TotalCost-baseCost) > 1e-12*baseCost {
						t.Fatalf("task %d: no-op move changed makespan %v -> %v, cost %v -> %v",
							task, baseMakespan, r.Makespan, baseCost, r.TotalCost)
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if i != len(want) {
			t.Fatalf("task %d: %d candidates simulated, reference has %d", task, i, len(want))
		}
	}
}

// TestMoveEvalMatchesReference: every (task, target) move of HEFTBUDG
// and CG schedules, paper families and random DAGs, evaluates to the
// reference's Makespan, TotalCost, VMs, Blames and task times.
func TestMoveEvalMatchesReference(t *testing.T) {
	var st moveStats
	check := func(name string, w *wf.Workflow, p *platform.Platform, budget float64, stride int) {
		for algName, base := range map[string]func(*wf.Workflow, *platform.Platform, float64) (*plan.Schedule, error){
			"heftbudg": HeftBudg, "cg": mustByName(NameCG).Plan,
		} {
			s, err := base(w, p, budget)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, algName, err)
			}
			checkMovesMatchReference(t, w, p, s, stride, &st)
		}
	}
	platforms := equivPlatforms(t)
	sizes, randomDAGs := []int{12, 30, 60, 120}, int64(200)
	if raceEnabled {
		sizes, randomDAGs = []int{12, 30}, 40
	}
	for _, typ := range []wfgen.Type{wfgen.CyberShake, wfgen.Ligo, wfgen.Montage} {
		for _, n := range sizes {
			if typ == wfgen.Ligo && n == 12 {
				n = 20 // LIGO sizes are multiples of 10
			}
			w := paperInstance(t, typ, n, uint64(n))
			// Large instances sample the tasks and stay on one platform;
			// small ones try every task on all three.
			stride, plats := 1, []string{"scalar", "fluid", "market"}
			if n > 30 {
				stride, plats = n/12, []string{"scalar"}
			}
			for _, pn := range plats {
				p := platforms[pn]
				check(fmt.Sprintf("%s/n%d/%s", typ, n, pn), w, p, 2*cheapBudget(t, w, p), stride)
			}
		}
	}
	for seed := int64(0); seed < randomDAGs; seed++ {
		r := rand.New(rand.NewSource(seed))
		w := randomWorkflow(r)
		pn := []string{"scalar", "fluid", "market"}[seed%3]
		p := platforms[pn]
		check(fmt.Sprintf("random/%d/%s", seed, pn), w, p, (1+3*r.Float64())*cheapBudget(t, w, p), 1)
	}
	t.Logf("%d moves compared, %d emptied a VM, %d of those were no-ops", st.moves, st.emptied, st.noops)
	if st.emptied == 0 || st.noops == 0 {
		t.Errorf("corner cases not met: %d moves emptied a VM, %d were no-ops", st.emptied, st.noops)
	}
}

var refinePlanners = []Name{
	NameHeftBudgPlus, NameHeftBudgPlusInv, NameCGPlus,
	NameHeftBudgPlus + spotSuffix, NameHeftBudgPlusInv + spotSuffix, NameCGPlus + spotSuffix,
}

// checkPlansMatchReference plans with every refinement planner and its
// reference twin and compares the schedules' JSON and per-VM orders.
func checkPlansMatchReference(t testing.TB, name string, w *wf.Workflow, p *platform.Platform, budget float64) {
	t.Helper()
	for _, alg := range refinePlanners {
		a, err := ByName(alg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Plan(w, p, budget)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, alg, err)
		}
		want, err := referencePlanner(alg).Plan(w, p, budget)
		if err != nil {
			t.Fatalf("%s/%s reference: %v", name, alg, err)
		}
		if g, r := scheduleJSON(t, got), scheduleJSON(t, want); g != r {
			t.Fatalf("%s/%s budget %v: plan differs from the reference planner:\n got %s\nwant %s", name, alg, budget, g, r)
		}
		if err := got.Validate(w, p.NumCategories()); err != nil {
			t.Fatalf("%s/%s: %v", name, alg, err)
		}
		// The JSON carries no per-VM orders; nil and empty print alike.
		if g, r := fmt.Sprint(got.Order), fmt.Sprint(want.Order); g != r {
			t.Fatalf("%s/%s: per-VM orders %s, reference %s", name, alg, g, r)
		}
	}
}

// TestRefinePlansMatchReference: whole plans of heftbudg+, heftbudg+inv
// and cg+ (and their -spot twins) are byte-equal to the reference
// planners' on the scalar, fluid and market platforms.
func TestRefinePlansMatchReference(t *testing.T) {
	platforms := equivPlatforms(t)
	sizes, randomDAGs := []int{20, 40}, int64(60)
	if raceEnabled {
		sizes, randomDAGs = []int{20}, 15
	}
	for _, typ := range []wfgen.Type{wfgen.CyberShake, wfgen.Ligo, wfgen.Montage} {
		for _, n := range sizes {
			w := paperInstance(t, typ, n, 3)
			for pn, p := range platforms {
				if n > 20 && pn != "scalar" {
					continue // the reference planners are slow
				}
				cheap := cheapBudget(t, w, p)
				// CG+ only finds affordable moves when the budget hugs the
				// cheapest schedule's cost; the larger ones exercise HEFTBUDG+.
				for _, factor := range []float64{1, 1.3, 3} {
					checkPlansMatchReference(t, fmt.Sprintf("%s/n%d/%s", typ, n, pn), w, p, factor*cheap)
				}
			}
		}
	}
	for seed := int64(0); seed < randomDAGs; seed++ {
		r := rand.New(rand.NewSource(seed))
		w := randomWorkflow(r)
		pn := []string{"scalar", "fluid", "market"}[seed%3]
		p := platforms[pn]
		checkPlansMatchReference(t, fmt.Sprintf("random/%d/%s", seed, pn), w, p, (1+3*r.Float64())*cheapBudget(t, w, p))
	}
}

// FuzzRefineMatchesReference drives the same whole-plan comparison
// from fuzzed (DAG seed, budget, platform) triples.
func FuzzRefineMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(0))
	f.Add(int64(2), uint16(250), uint8(1))
	f.Add(int64(3), uint16(400), uint8(2))
	f.Add(int64(-7), uint16(0), uint8(0))
	f.Add(int64(1<<40), uint16(65535), uint8(5))
	platforms := equivPlatforms(f)
	f.Fuzz(func(t *testing.T, seed int64, budgetPct uint16, plat uint8) {
		w := randomWorkflow(rand.New(rand.NewSource(seed)))
		pn := []string{"scalar", "fluid", "market"}[int(plat)%3]
		p := platforms[pn]
		budget := float64(budgetPct) / 100 * cheapBudget(t, w, p)
		checkPlansMatchReference(t, fmt.Sprintf("fuzz/%d/%s", seed, pn), w, p, budget)
	})
}

// refineTrace plans under a trace and returns the refine span.
func refineTrace(t *testing.T, planFn func(Options) (*plan.Schedule, error)) *obs.SpanJSON {
	t.Helper()
	tr := obs.New("test")
	if _, err := planFn(Options{span: tr.Root()}); err != nil {
		t.Fatal(err)
	}
	tr.EndAll()
	span := findSpan(tr.Tree().Root, "refine")
	if span == nil {
		t.Fatal("no refine span")
	}
	return span
}

// TestRefineTraceMatchesReference: the upgrade events and the totals of
// the refine span are what the reference path records, and the
// untraced plan counts its upgrades too (it used not to). The span's
// cutByBound and scored count the forward pass's work, which the
// reference, simulating every candidate, has no counterpart of: only
// the attrs the reference records are compared.
func TestRefineTraceMatchesReference(t *testing.T) {
	w := paperInstance(t, wfgen.Montage, 40, 1)
	p := platform.Default()
	budget := 2 * cheapBudget(t, w, p)
	for _, inverse := range []bool{false, true} {
		got := refineTrace(t, func(o Options) (*plan.Schedule, error) { return refine(w, p, budget, inverse, o) })
		want := refineTrace(t, func(o Options) (*plan.Schedule, error) { return refineReference(w, p, budget, inverse, o) })
		if len(want.Events) == 0 {
			t.Fatal("reference recorded no upgrade: the case proves nothing")
		}
		if len(got.Events) != len(want.Events) {
			t.Fatalf("inverse=%v: %d upgrade events, reference %d", inverse, len(got.Events), len(want.Events))
		}
		for i := range want.Events {
			if got.Events[i].Name != want.Events[i].Name || !reflect.DeepEqual(got.Events[i].Attrs, want.Events[i].Attrs) {
				t.Errorf("inverse=%v: event %d = %v %v, reference %v %v", inverse, i,
					got.Events[i].Name, got.Events[i].Attrs, want.Events[i].Attrs, want.Events[i].Attrs)
			}
		}
		for key, v := range want.Attrs {
			if !reflect.DeepEqual(got.Attrs[key], v) {
				t.Errorf("inverse=%v: refine span %s = %v, reference %v", inverse, key, got.Attrs[key], v)
			}
		}
		for _, key := range []string{"cutByBound", "scored"} {
			if _, ok := got.Attrs[key]; !ok {
				t.Errorf("inverse=%v: refine span lacks %q: %v", inverse, key, got.Attrs)
			}
		}
	}

	// CG+ records the same span: one upgrade event per accepted move.
	// It only moves when the budget hugs the cheapest schedule's cost.
	w = paperInstance(t, wfgen.Ligo, 40, 1)
	budget = cheapBudget(t, w, p)
	span := refineTrace(t, func(o Options) (*plan.Schedule, error) { return cgPlusOpt(w, p, budget, o) })
	for _, key := range []string{"baseMakespan", "movesTried", "upgrades", "finalMakespan"} {
		if _, ok := span.Attrs[key]; !ok {
			t.Errorf("cg+ refine span lacks %q: %v", key, span.Attrs)
		}
	}
	if n, ok := span.Attrs["upgrades"].(int64); !ok || int(n) != len(span.Events) || n == 0 {
		t.Errorf("cg+ refine span: upgrades = %v, %d upgrade events", span.Attrs["upgrades"], len(span.Events))
	}
}

// mediumBudget is the sweeps' medium budget, (CheapCost + High)/2 of
// exp.ComputeAnchors, which this package cannot import.
func mediumBudget(t *testing.T, w *wf.Workflow, p *platform.Platform) float64 {
	t.Helper()
	cheap := cheapBudget(t, w, p)
	s, err := Heft(w, p)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sim.RunDeterministic(w, p, s)
	if err != nil {
		t.Fatal(err)
	}
	high := max(cheap+2*(base.TotalCost-cheap), 1.02*base.TotalCost, 1.05*cheap)
	return (cheap + high) / 2
}

// TestRefinementScoresFewSteps holds the tasks the move passes of
// HEFTBUDG+ and +INV run (the refine span's scored) at n = 90, medium
// budget, seed 7, to a third of what the same passes ran when a move
// was cut only once its latest VM End reached the bound (parent, read
// with the tail bound switched off). Measured with the bound:
// 16 499 / 20 235 on Montage and 6 576 / 10 492 on CyberShake, 18–26 %;
// +INV keeps its restarts from rank 0, which no bound shortens. Every
// cut still means makespan ≥ bound: the plans are the reference's
// (TestRefinePlansMatchReference).
func TestRefinementScoresFewSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("plans four refinements at n = 90")
	}
	const frac = 1.0 / 3
	p := platform.Default()
	for _, c := range []struct {
		typ     wfgen.Type
		inverse bool
		parent  int64
	}{
		{wfgen.Montage, false, 90565},
		{wfgen.Montage, true, 94249},
		{wfgen.CyberShake, false, 36243},
		{wfgen.CyberShake, true, 40159},
	} {
		w := paperInstance(t, c.typ, 90, 7)
		budget := mediumBudget(t, w, p)
		span := refineTrace(t, func(o Options) (*plan.Schedule, error) { return refine(w, p, budget, c.inverse, o) })
		scored, ok := span.Attrs["scored"].(int64)
		if !ok {
			t.Fatalf("%s inverse=%v: no scored on the refine span: %v", c.typ, c.inverse, span.Attrs)
		}
		t.Logf("%s inverse=%v: %d tasks scored, %.1f %% of the parent's %d; %v moves cut by the tail bound",
			c.typ, c.inverse, scored, 100*float64(scored)/float64(c.parent), c.parent, span.Attrs["cutByBound"])
		if float64(scored) > frac*float64(c.parent) {
			t.Errorf("%s inverse=%v: %d tasks scored, more than %.2f of the parent's %d", c.typ, c.inverse, scored, frac, c.parent)
		}
	}
}

// TestRefineCancelsWithinOneCandidate: once the context's deadline has
// passed, the refinement planners return its error at the next poll —
// no candidate is simulated after the one in flight.
func TestRefineCancelsWithinOneCandidate(t *testing.T) {
	w := paperInstance(t, wfgen.Montage, 30, 1)
	p := platform.Default()
	budget := 2 * cheapBudget(t, w, p)
	plans := map[Name]func(Options) (*plan.Schedule, error){
		NameHeftBudgPlus:    func(o Options) (*plan.Schedule, error) { return refine(w, p, budget, false, o) },
		NameHeftBudgPlusInv: func(o Options) (*plan.Schedule, error) { return refine(w, p, budget, true, o) },
		NameCGPlus:          func(o Options) (*plan.Schedule, error) { return cgPlusOpt(w, p, budget, o) },
	}
	for name, planFn := range plans {
		// The base list planner polls once per task; expire in the
		// middle of the refinement that follows.
		polls, expireAt, pollsAtExpiry := 0, w.NumTasks()+40, 0
		tr := obs.New("test")
		_, err := planFn(Options{span: tr.Root(), stop: func() error {
			polls++
			if polls < expireAt {
				return nil
			}
			if pollsAtExpiry == 0 {
				pollsAtExpiry = polls
			}
			return stdcontext.DeadlineExceeded
		}})
		if !errors.Is(err, stdcontext.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want the deadline error", name, err)
		}
		if polls != pollsAtExpiry {
			t.Errorf("%s: polled %d more times after the deadline error", name, polls-pollsAtExpiry)
		}
	}
}

// TestHeftBudgPlusAllocations pins the point of the evaluator: a whole
// HEFTBUDG+ plan allocates like a list planner plus a handful of
// accepted moves, not per candidate (it was ≈ 370 000 at this size).
func TestHeftBudgPlusAllocations(t *testing.T) {
	w := paperInstance(t, wfgen.Montage, 60, 1)
	p := platform.Default()
	budget := 2 * cheapBudget(t, w, p)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := mustByName(NameHeftBudgPlus).Plan(w, p, budget); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("HEFTBUDG+ Montage n=60: %.0f allocations per plan", allocs)
	if allocs > 2000 {
		t.Errorf("HEFTBUDG+ allocates %.0f objects per plan, want <= 2000", allocs)
	}
}

// TestRefinedEstimatesAreSimulated: HEFTBUDG+, HEFTBUDG+INV and CG+
// report the deterministic simulation of the plan they return —
// EstMakespan and EstCost both equal sim.RunDeterministic's — whether
// or not refinement moved a task. Refinement used to keep HEFTBUDG's
// own EstCost on every plan it changed.
func TestRefinedEstimatesAreSimulated(t *testing.T) {
	p := platform.Default()
	moved := 0
	for _, typ := range wfgen.AllPaperTypes() {
		for seed := uint64(0); seed < 3; seed++ {
			w := paperInstance(t, typ, 40, seed)
			cheap := cheapBudget(t, w, p)
			for _, factor := range []float64{1, 1.3, 2, 4} {
				budget := factor * cheap
				base, err := HeftBudg(w, p, budget)
				if err != nil {
					t.Fatal(err)
				}
				for _, alg := range []Name{NameHeftBudgPlus, NameHeftBudgPlusInv, NameCGPlus} {
					a, err := ByName(alg)
					if err != nil {
						t.Fatal(err)
					}
					s, err := a.Plan(w, p, budget)
					if err != nil {
						t.Fatal(err)
					}
					r, err := sim.RunDeterministic(w, p, s)
					if err != nil {
						t.Fatal(err)
					}
					if s.EstMakespan != r.Makespan || s.EstCost != r.TotalCost {
						t.Errorf("%s %s seed %d ×%v: estimates (%v, %v), simulated (%v, %v)",
							alg, typ, seed, factor, s.EstMakespan, s.EstCost, r.Makespan, r.TotalCost)
					}
					if alg != NameCGPlus && !reflect.DeepEqual(s.TaskVM, base.TaskVM) {
						moved++
					}
				}
			}
		}
	}
	if moved == 0 {
		t.Error("refinement moved no task: the stale-estimate case went unexercised")
	}
}
