package plan

import (
	"bytes"
	"testing"

	"budgetwf/internal/stoch"
	"budgetwf/internal/wf"
)

// chainWF builds a 4-task chain 0→1→2→3.
func chainWF(t *testing.T) *wf.Workflow {
	t.Helper()
	w := wf.New("chain")
	prev := wf.TaskID(-1)
	for i := 0; i < 4; i++ {
		id := w.AddTask("t", stoch.Dist{Mean: 10})
		if i > 0 {
			w.MustAddEdge(prev, id, 100)
		}
		prev = id
	}
	return w
}

func validChainSchedule() *Schedule {
	s := New(4)
	s.ListT = []wf.TaskID{0, 1, 2, 3}
	vm0 := s.AddVM(0)
	vm1 := s.AddVM(1)
	s.Assign(0, vm0)
	s.Assign(1, vm1)
	s.Assign(2, vm0)
	s.Assign(3, vm1)
	return s
}

func TestNewStartsUnassigned(t *testing.T) {
	s := New(3)
	for i, vm := range s.TaskVM {
		if vm != Unassigned {
			t.Errorf("task %d pre-assigned to %d", i, vm)
		}
	}
}

func TestValidateAccepts(t *testing.T) {
	w := chainWF(t)
	if err := validChainSchedule().Validate(w, 3); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	w := chainWF(t)
	cases := map[string]func(*Schedule){
		"unassigned task": func(s *Schedule) {
			s.TaskVM[2] = Unassigned
			s.Order[0] = []wf.TaskID{0}
		},
		"bad category":  func(s *Schedule) { s.VMCats[0] = 7 },
		"bad vm index":  func(s *Schedule) { s.TaskVM[0] = 5 },
		"missing order": func(s *Schedule) { s.Order[0] = s.Order[0][:1] },
		"duplicate in order": func(s *Schedule) {
			s.Order[0] = append(s.Order[0], s.Order[0][0])
		},
		"order disagrees with TaskVM": func(s *Schedule) {
			s.Order[0], s.Order[1] = s.Order[1], s.Order[0]
		},
		"precedence violated on one VM": func(s *Schedule) {
			// Put the directly-dependent pair (2 → 3) on one VM in the
			// wrong order. (Only direct edges are checked; transitive
			// inversions are caught by the simulator's deadlock
			// detection instead.)
			s.TaskVM[3] = 0
			s.Order[0] = []wf.TaskID{0, 3, 2}
			s.Order[1] = []wf.TaskID{1}
		},
	}
	for name, mutate := range cases {
		s := validChainSchedule()
		mutate(s)
		if err := s.Validate(w, 3); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRebuildOrderFollowsListT(t *testing.T) {
	s := validChainSchedule()
	// Scramble orders, then rebuild: must come back sorted by ListT.
	s.Order[0] = []wf.TaskID{2, 0}
	s.RebuildOrder()
	if s.Order[0][0] != 0 || s.Order[0][1] != 2 {
		t.Errorf("Order[0] = %v", s.Order[0])
	}
	if s.Order[1][0] != 1 || s.Order[1][1] != 3 {
		t.Errorf("Order[1] = %v", s.Order[1])
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := validChainSchedule()
	c := s.Clone()
	c.TaskVM[0] = 1
	c.Order[0][0] = 3
	c.VMCats[0] = 2
	if s.TaskVM[0] != 0 || s.Order[0][0] != 0 || s.VMCats[0] != 0 {
		t.Error("Clone shares memory with original")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := validChainSchedule()
	s.EstMakespan = 123.5
	s.EstCost = 4.25
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.EstMakespan != 123.5 || got.EstCost != 4.25 {
		t.Error("estimates lost")
	}
	w := chainWF(t)
	if err := got.Validate(w, 3); err != nil {
		t.Fatal(err)
	}
	for i := range s.TaskVM {
		if got.TaskVM[i] != s.TaskVM[i] {
			t.Errorf("TaskVM[%d] = %d, want %d", i, got.TaskVM[i], s.TaskVM[i])
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	for i, s := range []string{``, `{`, `{"vmCategories":[0],"taskVM":[4],"listT":[0]}`, `{"zzz":1}`} {
		if _, err := ReadJSON(bytes.NewReader([]byte(s))); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
