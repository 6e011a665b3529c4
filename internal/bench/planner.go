package bench

import (
	"fmt"
	"sort"
	"testing"

	"budgetwf/internal/exp"
	"budgetwf/internal/platform"
	"budgetwf/internal/sched"
	"budgetwf/internal/wfgen"
)

// plannerSizes is the workflow-size axis of the planner grid.
var plannerSizes = []int{50, 300, 1000}

// refineCap caps the refinement planners (HEFTBUDG+, HEFTBUDG+INV,
// CG+) at n=300: they score O(n·VMs) candidate moves, each a forward
// pass resumed from the moved task (sim.Runner.ScoreMove) — O(n) — so
// a single plan at n=1000 still takes seconds. The cap is a documented
// property of the suite, not a silent truncation.
const refineCap = 300

var plannerFamilies = []wfgen.Type{wfgen.CyberShake, wfgen.Ligo, wfgen.Montage}

var plannerAlgs = []sched.Name{
	sched.NameHeftBudg,
	sched.NameHeftBudgPlus,
	sched.NameHeftBudgPlusInv,
	sched.NameMinMinBudg,
	sched.NameBDT,
	sched.NameCG,
	sched.NameCGPlus,
}

var refinePlanners = map[sched.Name]bool{
	sched.NameHeftBudgPlus: true, sched.NameHeftBudgPlusInv: true, sched.NameCGPlus: true,
}

// lowAlgs are the list planners measured at n = 1000 under the low
// budget too, where nearly every selection finds nothing affordable and
// falls back to the cheapest host.
var lowAlgs = []sched.Name{sched.NameHeftBudg, sched.NameMinMinBudg, sched.NameCG}

// Planner builds the planner suite: every budget-aware algorithm of
// the paper over CyberShake/LIGO/Montage at n ∈ {50, 300, 1000}
// (refinement algorithms capped at n=300, see refineCap). Each case
// plans one fixed seeded instance at the mid-range budget
// (CheapCost+High)/2, where the budget actually constrains placement;
// at n = 1000 the lowAlgs also plan at the low budget, CheapCost
// (plannerLowCase), and MIN-MIN, which no budget constrains, plans too.
func Planner(seed uint64) ([]Case, error) {
	p := platform.Default()
	var cases []Case
	// One instance and one anchor computation per (family, size),
	// shared by every algorithm's case.
	for _, typ := range plannerFamilies {
		for _, n := range plannerSizes {
			w, err := wfgen.Generate(typ, n, seed)
			if err != nil {
				return nil, err
			}
			w = w.WithSigmaRatio(0.5) // the paper's central σ/w̄
			anchors, err := exp.ComputeAnchors(w, p)
			if err != nil {
				return nil, err
			}
			add := func(name string, alg sched.Name, budget float64) error {
				a, err := sched.ByName(alg)
				if err != nil {
					return err
				}
				plan := a.Plan
				cases = append(cases, Case{
					Name: name,
					Bench: func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							if _, err := plan(w, p, budget); err != nil {
								b.Fatal(err)
							}
						}
					},
				})
				return nil
			}
			for _, alg := range plannerAlgs {
				if refinePlanners[alg] && n > refineCap {
					continue
				}
				if err := add(plannerCase(alg, typ, n), alg, (anchors.CheapCost+anchors.High)/2); err != nil {
					return nil, err
				}
			}
			if n != 1000 {
				continue
			}
			// MIN-MIN, the budget-blind baseline Table III times beside
			// MIN-MINBUDG, plans at the largest size only.
			if err := add(plannerCase(sched.NameMinMin, typ, n), sched.NameMinMin, (anchors.CheapCost+anchors.High)/2); err != nil {
				return nil, err
			}
			for _, alg := range lowAlgs {
				if err := add(plannerLowCase(alg, typ), alg, anchors.CheapCost); err != nil {
					return nil, err
				}
			}
		}
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].Name < cases[j].Name })
	return cases, nil
}

// plannerCase names the planner-suite case of alg on a family at size n.
func plannerCase(alg sched.Name, typ wfgen.Type, n int) string {
	return fmt.Sprintf("%s/%s/n%04d", alg, typ, n)
}

// plannerLowCase names the case of alg on a family at n = 1000 under
// the low budget.
func plannerLowCase(alg sched.Name, typ wfgen.Type) string {
	return fmt.Sprintf("%s/%s/low/n1000", alg, typ)
}
