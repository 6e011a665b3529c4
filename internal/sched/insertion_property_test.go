package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/sim"
	"budgetwf/internal/wf"
)

// planInsertionState mirrors heftPlan with Options{Insertion: true}
// but keeps the planner state, so tests can inspect the per-VM slot
// timelines that evalInsertion/assignInsertion maintain.
func planInsertionState(w *wf.Workflow, p *platform.Platform, budget float64) (*state, *plan.Schedule, error) {
	info, err := ComputeBudget(w, p, budget)
	if err != nil {
		return nil, nil, err
	}
	ctx, err := newContext(w, p)
	if err != nil {
		return nil, nil, err
	}
	order, err := ctx.rankOrder()
	if err != nil {
		return nil, nil, err
	}
	st := newState(ctx, true)
	var account optPot
	for _, t := range order {
		allowance := account.allowance(info.Shares[t])
		c := st.bestHostInsertion(t, allowance)
		st.assign(t, c)
		account.settle(allowance, c.cost)
	}
	return st, st.extract(order), nil
}

// TestInsertionSlotTimelineInvariants is the structural property test
// for the insertion placement policy, over random DAGs, seeds and
// budgets (tight budgets exercise the infeasible-fallback candidates,
// generous ones the gap-filling paths):
//
//  1. every VM's slot timeline is start-ordered and non-overlapping —
//     a slot begins no earlier than the previous one ends, and no
//     earlier than the VM's boot completes;
//  2. every task occupies exactly one slot, whose end is the planner's
//     recorded finish time;
//  3. extract emits each VM's tasks in slot order;
//  4. replaying the schedule in the discrete-event engine under the
//     planner's own (conservative) weights reproduces each task's
//     staging start and finish — planner and engine never disagree.
func TestInsertionSlotTimelineInvariants(t *testing.T) {
	p := platform.Default()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := randomWorkflow(r)
		budget := r.Float64() * 100
		if r.Float64() < 0.25 {
			budget = 1e9 // generous: everything is feasible
		}
		st, s, err := planInsertionState(w, p, budget)
		if err != nil {
			t.Logf("seed %d: plan: %v", seed, err)
			return false
		}
		if err := s.Validate(w, p.NumCategories()); err != nil {
			t.Logf("seed %d: invalid schedule: %v", seed, err)
			return false
		}
		const eps = 1e-9
		seen := make(map[wf.TaskID]bool)
		for v := range st.vms {
			vm := &st.vms[v]
			bootEnd := vm.bookAt + p.BootTime
			prevEnd := bootEnd
			for i, sl := range vm.slots {
				if sl.start < prevEnd-eps {
					t.Logf("seed %d: VM %d slot %d starts %.9f before previous end %.9f",
						seed, v, i, sl.start, prevEnd)
					return false
				}
				if sl.end < sl.start-eps {
					t.Logf("seed %d: VM %d slot %d inverted [%.9f, %.9f]", seed, v, i, sl.start, sl.end)
					return false
				}
				if seen[sl.task] {
					t.Logf("seed %d: task %d in two slots", seed, sl.task)
					return false
				}
				seen[sl.task] = true
				if got, want := st.finish[sl.task], sl.end; got != want {
					t.Logf("seed %d: task %d slot end %.9f != finish %.9f", seed, sl.task, want, got)
					return false
				}
				prevEnd = sl.end
			}
			// extract's Order must be the slot order.
			if len(s.Order[v]) != len(vm.slots) {
				t.Logf("seed %d: VM %d order len %d != %d slots", seed, v, len(s.Order[v]), len(vm.slots))
				return false
			}
			for i, sl := range vm.slots {
				if s.Order[v][i] != sl.task {
					t.Logf("seed %d: VM %d order[%d]=%d, slot has %d", seed, v, i, s.Order[v][i], sl.task)
					return false
				}
			}
		}
		if len(seen) != w.NumTasks() {
			t.Logf("seed %d: %d tasks slotted of %d", seed, len(seen), w.NumTasks())
			return false
		}
		// Deterministic replay: the engine must land every task exactly
		// where the planner put it.
		res, err := sim.RunDeterministic(w, p, s)
		if err != nil {
			t.Logf("seed %d: replay: %v", seed, err)
			return false
		}
		for v := range st.vms {
			for _, sl := range st.vms[v].slots {
				scale := 1 + res.Makespan
				if d := res.Tasks[sl.task].StageStart - sl.start; d > 1e-6*scale || d < -1e-6*scale {
					t.Logf("seed %d: task %d staged at %.9f, planner said %.9f", seed, sl.task, res.Tasks[sl.task].StageStart, sl.start)
					return false
				}
				if d := res.Tasks[sl.task].Finish - sl.end; d > 1e-6*scale || d < -1e-6*scale {
					t.Logf("seed %d: task %d finished at %.9f, planner said %.9f", seed, sl.task, res.Tasks[sl.task].Finish, sl.end)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 120}
	if testing.Short() {
		cfg.MaxCount = 20
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
