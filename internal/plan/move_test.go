package plan_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"budgetwf/internal/plan"
	"budgetwf/internal/plan/plantest"
	"budgetwf/internal/wf"
)

func TestCompactVMs(t *testing.T) {
	s := plan.ValidChainSchedule()
	// Move everything off VM 0.
	s.TaskVM[0] = 1
	s.TaskVM[2] = 1
	plantest.CompactVMs(s)
	if s.NumVMs() != 1 {
		t.Fatalf("NumVMs = %d after compaction", s.NumVMs())
	}
	if s.VMCats[0] != 1 {
		t.Errorf("surviving VM category = %d", s.VMCats[0])
	}
	for task, vm := range s.TaskVM {
		if vm != 0 {
			t.Errorf("task %d on VM %d", task, vm)
		}
	}
	w := plan.ChainWF(t)
	if err := s.Validate(w, 3); err != nil {
		t.Fatal(err)
	}
}

// Property: CompactVMs removes exactly the empty VMs, preserves every
// task's category, and is idempotent.
func TestCompactVMsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, s := plan.RandomPlanCase(r)
		s.RebuildOrder()
		catOf := make(map[wf.TaskID]int)
		for task, vm := range s.TaskVM {
			catOf[wf.TaskID(task)] = s.VMCats[vm]
		}
		used := map[int]bool{}
		for _, vm := range s.TaskVM {
			used[vm] = true
		}
		plantest.CompactVMs(s)
		if s.NumVMs() != len(used) {
			t.Logf("seed %d: %d VMs after compaction, want %d", seed, s.NumVMs(), len(used))
			return false
		}
		for task, vm := range s.TaskVM {
			if s.VMCats[vm] != catOf[wf.TaskID(task)] {
				t.Logf("seed %d: task %d changed category", seed, task)
				return false
			}
		}
		if err := s.Validate(w, 3); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		before := append([]int(nil), s.TaskVM...)
		plantest.CompactVMs(s)
		for i := range before {
			if s.TaskVM[i] != before[i] {
				t.Logf("seed %d: CompactVMs not idempotent", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// sameSchedule compares every field; an empty order equals a nil one.
func sameSchedule(a, b *plan.Schedule) bool {
	if !reflect.DeepEqual(a.VMCats, b.VMCats) || !reflect.DeepEqual(a.TaskVM, b.TaskVM) ||
		!reflect.DeepEqual(a.ListT, b.ListT) || len(a.Order) != len(b.Order) ||
		a.EstMakespan != b.EstMakespan || a.EstCost != b.EstCost {
		return false
	}
	for v := range a.Order {
		if len(a.Order[v]) != len(b.Order[v]) {
			return false
		}
		for i := range a.Order[v] {
			if a.Order[v][i] != b.Order[v][i] {
				return false
			}
		}
	}
	return true
}

// Property: for every (task, target) move of a compact schedule, the
// Mover's in-place candidate equals Clone → reassign → CompactVMs, the
// path the refinement planners used to take per candidate. One Mover
// serves all moves of a case, so stale scratch would show.
func TestMoverMatchesCloneCompact(t *testing.T) {
	const numCats = 3
	emptied := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, base := plan.RandomPlanCase(r)
		plantest.CompactVMs(base)
		base.EstMakespan, base.EstCost = r.Float64(), r.Float64()
		m := plan.NewMover(w.NumTasks())
		for task := range base.TaskVM {
			for target := 0; target < base.NumVMs()+numCats; target++ {
				if target == base.TaskVM[task] {
					continue
				}
				want := base.Clone()
				vm, cat := target, 0
				if target < base.NumVMs() {
					want.TaskVM[task] = target
				} else {
					vm, cat = -1, target-base.NumVMs()
					want.TaskVM[task] = want.AddVM(cat)
				}
				plantest.CompactVMs(want)
				if want.NumVMs() < base.NumVMs() || (vm < 0 && want.NumVMs() == base.NumVMs()) {
					emptied++
				}
				got := m.Move(base, wf.TaskID(task), vm, cat)
				if !sameSchedule(got, want) {
					t.Logf("seed %d: task %d -> target %d:\n got %+v\nwant %+v", seed, task, target, got, want)
					return false
				}
				if err := got.Validate(w, numCats); err != nil {
					t.Logf("seed %d: task %d -> target %d: %v", seed, task, target, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
	if emptied == 0 {
		t.Error("no move emptied a VM: the renumbering went untested")
	}
}

// A kept candidate must survive the Mover's next move.
func TestMoverCloneDetaches(t *testing.T) {
	base := plan.ValidChainSchedule()
	m := plan.NewMover(4)
	kept := m.Move(base, 0, 1, 0).Clone()
	want := kept.Clone()
	m.Move(base, 3, -1, 2)
	if !sameSchedule(kept, want) {
		t.Errorf("clone changed under the next move:\n got %+v\nwant %+v", kept, want)
	}
	if base.TaskVM[0] != 0 || base.NumVMs() != 2 {
		t.Errorf("Move mutated its base: %+v", base)
	}
}

// A kept candidate that becomes the next base needs no clone: moves
// from it land in the Mover's other schedule, and the chain of kept
// moves equals the one built from clones.
func TestMoverSwapsKeptBase(t *testing.T) {
	const numCats = 3
	r := rand.New(rand.NewSource(3))
	w, base := plan.RandomPlanCase(r)
	plantest.CompactVMs(base)
	m := plan.NewMover(w.NumTasks())
	cur, ref := base, base.Clone()
	for step := 0; step < 20; step++ {
		task := wf.TaskID(r.Intn(w.NumTasks()))
		target := r.Intn(cur.NumVMs() + numCats)
		if target == cur.TaskVM[task] {
			continue
		}
		vm, cat := target, 0
		if target >= cur.NumVMs() {
			vm, cat = -1, target-cur.NumVMs()
		}
		snapshot := cur.Clone()
		next := m.Move(cur, task, vm, cat)
		if next == cur {
			t.Fatalf("step %d: Move wrote into its base", step)
		}
		if !sameSchedule(cur, snapshot) {
			t.Fatalf("step %d: Move changed its base:\n got %+v\nwant %+v", step, cur, snapshot)
		}
		ref = plan.NewMover(w.NumTasks()).Move(ref, task, vm, cat).Clone()
		if !sameSchedule(next, ref) {
			t.Fatalf("step %d: kept chain diverged:\n got %+v\nwant %+v", step, next, ref)
		}
		if err := next.Validate(w, numCats); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		cur = next
	}
}

func TestMoverDoesNotAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	w, base := plan.RandomPlanCase(r)
	plantest.CompactVMs(base)
	m := plan.NewMover(w.NumTasks())
	allocs := testing.AllocsPerRun(50, func() {
		m.Move(base, 0, -1, 1)
	})
	if allocs != 0 {
		t.Errorf("Move allocates %.0f objects per call, want 0", allocs)
	}
}
