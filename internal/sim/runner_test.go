package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"budgetwf/internal/plan"
	"budgetwf/internal/plan/plantest"
	"budgetwf/internal/rng"
	"budgetwf/internal/wf"
)

// TestRunnerMatchesOneShot: replaying a schedule through one Runner
// must give bit-identical results to the allocating package-level
// entry points, replication after replication — the buffer reuse must
// be invisible.
func TestRunnerMatchesOneShot(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, s, p := randomCase(r)
		runner, err := NewRunner(w, p, s)
		if err != nil {
			t.Logf("seed %d: NewRunner: %v", seed, err)
			return false
		}
		// Two independent but identically-seeded streams: one for the
		// Runner, one for the one-shot API.
		sa := rng.New(uint64(seed)).Split(7)
		sb := rng.New(uint64(seed)).Split(7)
		for rep := 0; rep < 5; rep++ {
			ra, err1 := runner.RunStochastic(sa.Split(uint64(rep)))
			rb, err2 := RunStochastic(w, p, s, sb.Split(uint64(rep)))
			if err1 != nil || err2 != nil {
				t.Logf("seed %d rep %d: %v / %v", seed, rep, err1, err2)
				return false
			}
			if ra.Makespan != rb.Makespan || ra.TotalCost != rb.TotalCost ||
				ra.DCCost != rb.DCCost || ra.NumVMs() != rb.NumVMs() ||
				ra.FirstBook != rb.FirstBook || ra.LastEvent != rb.LastEvent {
				t.Logf("seed %d rep %d: runner %+v != one-shot %+v", seed, rep, ra, rb)
				return false
			}
			for i := range rb.Tasks {
				if ra.Tasks[i] != rb.Tasks[i] || ra.Blames[i] != rb.Blames[i] {
					t.Logf("seed %d rep %d: task %d diverged", seed, rep, i)
					return false
				}
			}
			for v := range rb.VMs {
				if ra.VMs[v] != rb.VMs[v] {
					t.Logf("seed %d rep %d: VM %d diverged", seed, rep, v)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRunnerDeterministicMatches: Runner.Run on conservative weights
// equals RunDeterministic, and explicit-weights Run equals package Run.
func TestRunnerDeterministicMatches(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	w, s, p := randomCase(r)
	runner, err := NewRunner(w, p, s)
	if err != nil {
		t.Fatal(err)
	}
	a, err := runner.Run(ConservativeWeights(w))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDeterministic(w, p, s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.TotalCost != b.TotalCost {
		t.Errorf("deterministic: runner (%v, %v) != one-shot (%v, %v)",
			a.Makespan, a.TotalCost, b.Makespan, b.TotalCost)
	}
	weights := MeanWeights(w)
	a, err = runner.Run(weights)
	if err != nil {
		t.Fatal(err)
	}
	b, err = Run(w, p, s, weights)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.TotalCost != b.TotalCost {
		t.Errorf("explicit weights: runner (%v, %v) != one-shot (%v, %v)",
			a.Makespan, a.TotalCost, b.Makespan, b.TotalCost)
	}
}

// TestRunnerRejectsBadWeights: wrong count and non-positive weights
// fail cleanly, and the Runner still works afterwards.
func TestRunnerRejectsBadWeights(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	w, s, p := randomCase(r)
	runner, err := NewRunner(w, p, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(make([]float64, w.NumTasks()+1)); err == nil {
		t.Error("wrong weight count accepted")
	}
	bad := MeanWeights(w)
	bad[0] = -1
	if _, err := runner.Run(bad); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := runner.Run(MeanWeights(w)); err != nil {
		t.Errorf("runner unusable after rejected input: %v", err)
	}
}

// TestRunnerResultAliased documents the Result lifetime: the next call
// overwrites the previous Result in place.
func TestRunnerResultAliased(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	w, s, p := randomCase(r)
	runner, err := NewRunner(w, p, s)
	if err != nil {
		t.Fatal(err)
	}
	a, err := runner.Run(MeanWeights(w))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runner.Run(MeanWeights(w))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Runner should reuse one Result value across calls")
	}
}

// TestRunnerRebindMatchesOneShot: one Runner re-pointed at a sequence
// of unrelated schedules of the same workflow — other VM counts, other
// crossing edges, so the VM table and the flow arena regrow — gives
// what a fresh engine gives for each, bit for bit; a schedule that
// does not validate is refused and leaves the Runner usable.
func TestRunnerRebindMatchesOneShot(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, s, p := randomCase(r)
		n := w.NumTasks()
		// Start on the schedule with the fewest flows: everything on one VM.
		single := plan.New(n)
		single.AddVM(0)
		for i := 0; i < n; i++ {
			single.ListT = append(single.ListT, wf.TaskID(i))
			single.Assign(wf.TaskID(i), 0)
		}
		runner, err := NewRunner(w, p, single)
		if err != nil {
			t.Logf("seed %d: NewRunner: %v", seed, err)
			return false
		}
		weights := SampleWeights(w, rng.New(uint64(seed)))
		scratch := s.Clone()
		for step := 0; step < 6; step++ {
			if step > 0 {
				// Rewrite the bound schedule in place, as plan.Mover does.
				for i := range scratch.TaskVM {
					scratch.TaskVM[i] = r.Intn(scratch.NumVMs())
				}
				plantest.CompactVMs(scratch)
			}
			if err := runner.Rebind(scratch); err != nil {
				t.Logf("seed %d step %d: Rebind: %v", seed, step, err)
				return false
			}
			got, err1 := runner.Run(weights)
			want, err2 := Run(w, p, scratch.Clone(), weights)
			if err1 != nil || err2 != nil {
				t.Logf("seed %d step %d: %v / %v", seed, step, err1, err2)
				return false
			}
			if got.Makespan != want.Makespan || got.TotalCost != want.TotalCost ||
				!reflect.DeepEqual(got.VMs, want.VMs) || !reflect.DeepEqual(got.Tasks, want.Tasks) ||
				!reflect.DeepEqual(got.Blames, want.Blames) {
				t.Logf("seed %d step %d: rebound %+v != fresh %+v", seed, step, got, want)
				return false
			}
		}
		bad := scratch.Clone()
		bad.TaskVM[0] = bad.NumVMs() // no such VM
		if err := runner.Rebind(bad); err == nil {
			t.Logf("seed %d: invalid schedule accepted", seed)
			return false
		}
		got, err := runner.Run(weights)
		want, _ := Run(w, p, scratch, weights)
		return err == nil && got.Makespan == want.Makespan && got.TotalCost == want.TotalCost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// A Rebind-and-Run cycle reuses every buffer once they have grown.
func TestRunnerRebindDoesNotAllocate(t *testing.T) {
	w, s, p := randomCase(rand.New(rand.NewSource(3)))
	runner, err := NewRunner(w, p, s)
	if err != nil {
		t.Fatal(err)
	}
	weights := ConservativeWeights(w)
	allocs := testing.AllocsPerRun(20, func() {
		if err := runner.Rebind(s); err != nil {
			t.Fatal(err)
		}
		if _, err := runner.Run(weights); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Rebind+Run allocates %.0f objects per cycle, want 0", allocs)
	}
}
