package plan

import (
	"math/rand"
	"testing"
	"testing/quick"

	"budgetwf/internal/stoch"
	"budgetwf/internal/wf"
)

// randomPlanCase builds a random DAG and a random raw assignment
// (TaskVM + ListT in ID order, which is topological because edges go
// from lower to higher IDs).
func randomPlanCase(r *rand.Rand) (*wf.Workflow, *Schedule) {
	n := 1 + r.Intn(25)
	w := wf.New("prop")
	for i := 0; i < n; i++ {
		w.AddTask("t", stoch.Dist{Mean: 1 + r.Float64()*100})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.15 {
				w.MustAddEdge(wf.TaskID(i), wf.TaskID(j), r.Float64()*100)
			}
		}
	}
	s := New(n)
	numVMs := 1 + r.Intn(6)
	for v := 0; v < numVMs; v++ {
		s.AddVM(r.Intn(3))
	}
	for i := 0; i < n; i++ {
		s.ListT = append(s.ListT, wf.TaskID(i))
		s.TaskVM[i] = r.Intn(numVMs)
	}
	return w, s
}

// Property: RebuildOrder always yields a schedule that validates
// (orders consistent with TaskVM, per-VM precedence respected since
// ListT is topological).
func TestRebuildOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, s := randomPlanCase(r)
		s.RebuildOrder()
		return s.Validate(w, 3) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: Clone is observationally equal and fully detached.
func TestCloneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_, s := randomPlanCase(r)
		s.RebuildOrder()
		c := s.Clone()
		if c.NumVMs() != s.NumVMs() || len(c.TaskVM) != len(s.TaskVM) {
			return false
		}
		for i := range s.TaskVM {
			if c.TaskVM[i] != s.TaskVM[i] {
				return false
			}
		}
		// Mutating the clone must not touch the original.
		if c.NumVMs() > 0 && len(c.TaskVM) > 0 {
			c.TaskVM[0] = (c.TaskVM[0] + 1) % c.NumVMs()
			c.RebuildOrder()
		}
		s2 := s.Clone()
		for i := range s.TaskVM {
			if s2.TaskVM[i] != s.TaskVM[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
