package sched

import (
	"testing"

	"budgetwf/internal/platform"
	"budgetwf/internal/wfgen"
)

// maxPlanAllocs bounds the heap allocations of one plan of every
// registered planner on Montage at n = 90 (seed 1, σ/w̄ = 0.5, the
// medium budget of minMinBudgets). A list planner allocates a fixed
// handful of buffers per plan — the context, the budget shares, the
// planner state, MIN-MIN's picks and re-scan buffer, and the extracted
// schedule — and reads 25–33 (MIN-MIN 28, HEFT 25, MIN-MINBUDG 31,
// HEFTBUDG 27, BDT 32, CG 29, PEFT 33). The refinement planners add
// their evaluator and the Mover's two schedules to the list plan they
// start from (HEFTBUDG+ 73, HEFTBUDG+INV 71, CG+ 74). A list planner's
// ceiling was set at about 1.5× its count and a refinement planner's
// at 1.3× (all but MIN-MIN's and MIN-MINBUDG's when they read 4–10
// more), so that a per-task append (90 tasks) or a per-VM append
// (28–36 VMs) fails it, and a clone per accepted move fails
// HEFTBUDG+'s. When every VM kept its own task and slot lists, every
// ready task its own candidate column and every accepted move a clone,
// the same plans read 253–492.
var maxPlanAllocs = map[Name]float64{
	NameMinMin:          41,
	NameHeft:            45,
	NameMinMinBudg:      45,
	NameHeftBudg:        48,
	NameHeftBudgPlus:    105,
	NameHeftBudgPlusInv: 103,
	NameBDT:             57,
	NameCG:              51,
	NameCGPlus:          107,
	NamePeft:            57,
}

func TestPlanAllocs(t *testing.T) {
	p := platform.Default()
	w := paperInstance(t, wfgen.Montage, 90, 1)
	budget := minMinBudgets(t, w, p)[3]
	for _, a := range AllExtended() {
		ceiling, ok := maxPlanAllocs[a.Name]
		if !ok {
			t.Errorf("%s: no allocation ceiling", a.Name)
			continue
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := a.Plan(w, p, budget); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per plan (ceiling %.0f)", a.Name, allocs, ceiling)
		if allocs > ceiling {
			t.Errorf("%s: %.0f allocs per plan, ceiling %.0f", a.Name, allocs, ceiling)
		}
	}
}
