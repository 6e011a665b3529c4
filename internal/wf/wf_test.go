package wf

import (
	"strings"
	"testing"

	"budgetwf/internal/stoch"
)

func dist(mean float64) stoch.Dist { return stoch.Dist{Mean: mean} }

// diamond builds the canonical 4-task diamond A → {B, C} → D.
func diamond(t *testing.T) (*Workflow, [4]TaskID) {
	t.Helper()
	w := New("diamond")
	a := w.AddTask("A", dist(10))
	b := w.AddTask("B", dist(20))
	c := w.AddTask("C", dist(30))
	d := w.AddTask("D", dist(40))
	w.MustAddEdge(a, b, 100)
	w.MustAddEdge(a, c, 200)
	w.MustAddEdge(b, d, 300)
	w.MustAddEdge(c, d, 400)
	return w, [4]TaskID{a, b, c, d}
}

func TestAddTaskAssignsDenseIDs(t *testing.T) {
	w := New("x")
	for i := 0; i < 5; i++ {
		if id := w.AddTask("t", dist(1)); int(id) != i {
			t.Fatalf("task %d got ID %d", i, id)
		}
	}
	if w.NumTasks() != 5 {
		t.Errorf("NumTasks = %d", w.NumTasks())
	}
}

func TestAddEdgeValidation(t *testing.T) {
	w := New("x")
	a := w.AddTask("a", dist(1))
	b := w.AddTask("b", dist(1))
	if err := w.AddEdge(a, b, -1); err == nil {
		t.Error("negative size accepted")
	}
	if err := w.AddEdge(a, a, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := w.AddEdge(a, TaskID(99), 1); err == nil {
		t.Error("dangling target accepted")
	}
	if err := w.AddEdge(TaskID(-1), b, 1); err == nil {
		t.Error("dangling source accepted")
	}
	if err := w.AddEdge(a, b, 0); err != nil {
		t.Errorf("zero-size edge rejected: %v", err)
	}
}

func TestDegreesAndNeighbors(t *testing.T) {
	w, ids := diamond(t)
	a, b, _, d := ids[0], ids[1], ids[2], ids[3]
	if w.NumSucc(a) != 2 || w.NumPred(a) != 0 {
		t.Error("A degrees wrong")
	}
	if w.NumPred(d) != 2 || w.NumSucc(d) != 0 {
		t.Error("D degrees wrong")
	}
	succ := w.Succ(a)
	if len(succ) != 2 || succ[0].To != b {
		t.Errorf("Succ(A) = %v", succ)
	}
	pred := w.Pred(d)
	if len(pred) != 2 || pred[0].Size != 300 || pred[1].Size != 400 {
		t.Errorf("Pred(D) = %v", pred)
	}
}

func TestEntriesExits(t *testing.T) {
	w, ids := diamond(t)
	if e := w.Entries(); len(e) != 1 || e[0] != ids[0] {
		t.Errorf("Entries = %v", e)
	}
	if x := w.Exits(); len(x) != 1 || x[0] != ids[3] {
		t.Errorf("Exits = %v", x)
	}
}

func TestSizes(t *testing.T) {
	w, ids := diamond(t)
	if got := w.InputSize(ids[3]); got != 700 {
		t.Errorf("InputSize(D) = %v", got)
	}
	if got := w.OutputSize(ids[0]); got != 300 {
		t.Errorf("OutputSize(A) = %v", got)
	}
	if got := w.TotalDataSize(); got != 1000 {
		t.Errorf("TotalDataSize = %v", got)
	}
}

func TestExternalIO(t *testing.T) {
	w, ids := diamond(t)
	if err := w.SetExternalIO(ids[0], 500, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.SetExternalIO(ids[3], 0, 250); err != nil {
		t.Fatal(err)
	}
	if w.ExternalInSize() != 500 || w.ExternalOutSize() != 250 {
		t.Error("external sizes wrong")
	}
	if err := w.SetExternalIO(TaskID(99), 1, 1); err == nil {
		t.Error("SetExternalIO accepted bad ID")
	}
}

func TestWork(t *testing.T) {
	w, _ := diamond(t)
	if got := w.TotalMeanWork(); got != 100 {
		t.Errorf("TotalMeanWork = %v", got)
	}
	w2 := w.WithSigmaRatio(0.5)
	if got := w2.TotalConservativeWork(); got != 150 {
		t.Errorf("TotalConservativeWork = %v", got)
	}
	// Original untouched.
	if got := w.TotalConservativeWork(); got != 100 {
		t.Errorf("WithSigmaRatio mutated the original: %v", got)
	}
}

func TestTopoOrderDiamond(t *testing.T) {
	w, ids := diamond(t)
	order, err := w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[TaskID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range w.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %d->%d violated", e.From, e.To)
		}
	}
	if order[0] != ids[0] || order[3] != ids[3] {
		t.Errorf("order = %v", order)
	}
}

func TestTopoOrderCycleDetection(t *testing.T) {
	w := New("cyclic")
	a := w.AddTask("a", dist(1))
	b := w.AddTask("b", dist(1))
	c := w.AddTask("c", dist(1))
	w.MustAddEdge(a, b, 1)
	w.MustAddEdge(b, c, 1)
	w.MustAddEdge(c, a, 1)
	if _, err := w.TopoOrder(); err == nil {
		t.Error("cycle not detected")
	}
	if err := w.Validate(); err == nil {
		t.Error("Validate missed the cycle")
	}
}

func TestLevels(t *testing.T) {
	w, ids := diamond(t)
	level, n, err := w.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("numLevels = %d", n)
	}
	want := map[TaskID]int{ids[0]: 0, ids[1]: 1, ids[2]: 1, ids[3]: 2}
	for id, l := range want {
		if level[id] != l {
			t.Errorf("level[%d] = %d, want %d", id, level[id], l)
		}
	}
}

func TestBottomLevels(t *testing.T) {
	w, ids := diamond(t)
	exec := func(task Task) float64 { return task.Weight.Mean }
	comm := func(e Edge) float64 { return e.Size }
	rank, err := w.BottomLevels(exec, comm)
	if err != nil {
		t.Fatal(err)
	}
	// rank(D)=40; rank(B)=20+300+40=360; rank(C)=30+400+40=470;
	// rank(A)=10+max(100+360, 200+470)=680.
	want := map[TaskID]float64{ids[0]: 680, ids[1]: 360, ids[2]: 470, ids[3]: 40}
	for id, r := range want {
		if rank[id] != r {
			t.Errorf("rank[%d] = %v, want %v", id, rank[id], r)
		}
	}
}

func TestCriticalPathLength(t *testing.T) {
	w, _ := diamond(t)
	exec := func(task Task) float64 { return task.Weight.Mean }
	comm := func(e Edge) float64 { return e.Size }
	cp, err := w.CriticalPathLength(exec, comm)
	if err != nil {
		t.Fatal(err)
	}
	if cp != 680 {
		t.Errorf("critical path = %v", cp)
	}
}

func TestRankOrder(t *testing.T) {
	order := RankOrder([]float64{5, 20, 10, 20})
	// Decreasing rank, ties by ascending ID: 1, 3, 2, 0.
	want := []TaskID{1, 3, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("RankOrder = %v, want %v", order, want)
		}
	}
}

func TestValidateRejectsBadWeights(t *testing.T) {
	w := New("bad")
	w.AddTask("z", stoch.Dist{Mean: 0})
	if err := w.Validate(); err == nil {
		t.Error("zero-mean weight accepted")
	}
	empty := New("empty")
	if err := empty.Validate(); err == nil {
		t.Error("empty workflow accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	w, ids := diamond(t)
	c := w.Clone()
	c.AddTask("extra", dist(1))
	c.MustAddEdge(ids[3], TaskID(4), 7)
	if w.NumTasks() != 4 || w.NumEdges() != 4 {
		t.Error("Clone shares structure with the original")
	}
	if c.NumTasks() != 5 || c.NumEdges() != 5 {
		t.Error("Clone lost the additions")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	w, ids := diamond(t)
	if err := w.SetExternalIO(ids[0], 512, 0); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := w.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != w.Name || got.NumTasks() != w.NumTasks() || got.NumEdges() != w.NumEdges() {
		t.Fatal("round trip changed shape")
	}
	for i := 0; i < w.NumTasks(); i++ {
		a, b := w.Task(TaskID(i)), got.Task(TaskID(i))
		if a != b {
			t.Errorf("task %d: %+v != %+v", i, a, b)
		}
	}
	for i, e := range w.Edges() {
		if got.Edges()[i] != e {
			t.Errorf("edge %d differs", i)
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	cases := []string{
		``,
		`{`,
		`{"name":"x","tasks":[],"edges":[]}`, // no tasks
		`{"name":"x","tasks":[{"name":"a","mean":1}],"edges":[{"from":0,"to":5,"size":1}]}`,
		`{"name":"x","tasks":[{"name":"a","mean":1}],"unknown":1}`,
		`{"name":"x","tasks":[{"name":"a","mean":-3}],"edges":[]}`,
	}
	for i, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	w, _ := diamond(t)
	path := t.TempDir() + "/wf.json"
	if err := w.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTasks() != 4 {
		t.Error("load lost tasks")
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Error("missing file accepted")
	}
}
