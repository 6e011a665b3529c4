package wfgen

import (
	"strings"
	"testing"

	"budgetwf/internal/wf"
)

func TestGenerateExactSizes(t *testing.T) {
	for _, typ := range AllPaperTypes() {
		for _, n := range []int{30, 60, 90, 400} {
			w, err := Generate(typ, n, 0)
			if err != nil {
				t.Fatalf("%s n=%d: %v", typ, n, err)
			}
			if w.NumTasks() != n {
				t.Errorf("%s n=%d: got %d tasks", typ, n, w.NumTasks())
			}
			if err := w.Validate(); err != nil {
				t.Errorf("%s n=%d: %v", typ, n, err)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, typ := range AllPaperTypes() {
		a := MustGenerate(typ, 30, 7)
		b := MustGenerate(typ, 30, 7)
		if a.NumEdges() != b.NumEdges() {
			t.Fatalf("%s: same seed, different shape", typ)
		}
		for i := 0; i < a.NumTasks(); i++ {
			if a.Task(wf.TaskID(i)) != b.Task(wf.TaskID(i)) {
				t.Fatalf("%s: task %d differs for same seed", typ, i)
			}
		}
		for i, e := range a.Edges() {
			if b.Edges()[i] != e {
				t.Fatalf("%s: edge %d differs for same seed", typ, i)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	for _, typ := range AllPaperTypes() {
		a := MustGenerate(typ, 30, 0)
		b := MustGenerate(typ, 30, 1)
		same := true
		for i := 0; i < a.NumTasks() && same; i++ {
			if a.Task(wf.TaskID(i)).Weight != b.Task(wf.TaskID(i)).Weight {
				same = false
			}
		}
		if same {
			t.Errorf("%s: seeds 0 and 1 produced identical weights", typ)
		}
	}
}

func TestCyberShakeStructure(t *testing.T) {
	w := MustGenerate(CyberShake, 90, 3)
	// §V-A: pairs of (generator → calculator), all linked to two
	// agglomerative tasks; half the tasks have huge input data.
	pairs := (90 - 2) / 2
	huge := 0
	var zips []wf.TaskID
	for _, task := range w.Tasks() {
		if task.ExternalIn > 1e9 {
			huge++
		}
		if strings.HasPrefix(task.Name, "Zip") {
			zips = append(zips, task.ID)
		}
	}
	if huge != pairs {
		t.Errorf("%d tasks with huge input, want %d (half)", huge, pairs)
	}
	if len(zips) != 2 {
		t.Fatalf("%d agglomerative tasks, want 2", len(zips))
	}
	for _, z := range zips {
		if w.NumPred(z) != pairs {
			t.Errorf("agglomerator has %d inputs, want %d", w.NumPred(z), pairs)
		}
		if w.NumSucc(z) != 0 {
			t.Error("agglomerator is not an exit task")
		}
	}
	// Each extractor feeds exactly its synthesizer.
	for _, task := range w.Tasks() {
		if strings.HasPrefix(task.Name, "ExtractSGT") && w.NumSucc(task.ID) != 1 {
			t.Errorf("%s has %d successors, want 1", task.Name, w.NumSucc(task.ID))
		}
	}
}

func TestLigoStructure(t *testing.T) {
	w := MustGenerate(Ligo, 90, 3)
	// One oversized input with ratio > 100 versus the common size.
	var sizes []float64
	for _, task := range w.Tasks() {
		if task.ExternalIn > 0 {
			sizes = append(sizes, task.ExternalIn)
		}
	}
	maxSize, common := 0.0, 0.0
	for _, s := range sizes {
		if s > maxSize {
			common = maxSize
			maxSize = s
		} else if s > common {
			common = s
		}
	}
	if maxSize < 100*common {
		t.Errorf("oversized ratio %.1f, want > 100", maxSize/common)
	}
	over := 0
	for _, s := range sizes {
		if s > 10*common {
			over++
		}
	}
	if over != 1 {
		t.Errorf("%d oversized inputs, want exactly 1", over)
	}
	// The scheme repeats twice: 4 levels (parallel, agg, parallel, agg).
	_, levels, err := w.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if levels != 4 {
		t.Errorf("%d levels, want 4", levels)
	}
	// Blocks are independent: 9 blocks of 10 tasks at n=90.
	if got := len(w.Entries()); got != 9*4 {
		t.Errorf("%d entry tasks, want 36", got)
	}
}

func TestMontageStructure(t *testing.T) {
	w := MustGenerate(Montage, 90, 3)
	// Highly interconnected: edge/task ratio well above the other
	// families'.
	if ratio := float64(w.NumEdges()) / float64(w.NumTasks()); ratio < 1.5 {
		t.Errorf("montage edge/task ratio %.2f, want ≥ 1.5", ratio)
	}
	// Balanced task weights: max/min mean within one order of
	// magnitude (§V-A: "the number of instructions ... is balanced").
	lo, hi := 1e300, 0.0
	for _, task := range w.Tasks() {
		m := task.Weight.Mean
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	if hi/lo > 10 {
		t.Errorf("montage weight spread %.1f×, want ≤ 10×", hi/lo)
	}
	// Single final product.
	if exits := w.Exits(); len(exits) != 1 {
		t.Errorf("%d exit tasks, want 1 (mJPEG)", len(exits))
	}
}

func TestGenericGenerators(t *testing.T) {
	cases := []struct {
		typ Type
		n   int
	}{
		{Random, 25}, {Chain, 10}, {ForkJoin, 12}, {BagOfTasks, 8},
	}
	for _, c := range cases {
		w, err := Generate(c.typ, c.n, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.typ, err)
		}
		if w.NumTasks() != c.n {
			t.Errorf("%s: %d tasks, want %d", c.typ, w.NumTasks(), c.n)
		}
	}
	if w := MustGenerate(Chain, 10, 1); w.NumEdges() != 9 {
		t.Errorf("chain edges = %d", w.NumEdges())
	}
	if w := MustGenerate(BagOfTasks, 10, 1); w.NumEdges() != 0 {
		t.Errorf("bag-of-tasks edges = %d", w.NumEdges())
	}
	fj := MustGenerate(ForkJoin, 12, 1)
	if len(fj.Entries()) != 1 || len(fj.Exits()) != 1 {
		t.Error("fork-join must have one entry and one exit")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate("nope", 30, 0); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := Generate(Montage, 2, 0); err == nil {
		t.Error("tiny montage accepted")
	}
	if _, err := Generate(Ligo, 35, 0); err == nil {
		t.Error("non-multiple LIGO size accepted")
	}
	if _, err := Generate(CyberShake, 31, 0); err == nil {
		t.Error("odd CYBERSHAKE size accepted")
	}
}

func TestParseType(t *testing.T) {
	if typ, err := ParseType("  MONTAGE "); err != nil || typ != Montage {
		t.Errorf("ParseType = %v, %v", typ, err)
	}
	if _, err := ParseType("bogus"); err == nil {
		t.Error("bogus type accepted")
	}
}

func TestGeneratedSigmaIsZero(t *testing.T) {
	for _, typ := range AllPaperTypes() {
		w := MustGenerate(typ, 30, 0)
		for _, task := range w.Tasks() {
			if task.Weight.Sigma != 0 {
				t.Fatalf("%s: generator set σ=%v; uncertainty is applied via WithSigmaRatio", typ, task.Weight.Sigma)
			}
		}
	}
}

// TestGenerateAllocs: a generated workflow costs a fixed number of
// allocations whatever its size — the task and edge lists are reserved
// up front and the task names share one buffer.
func TestGenerateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	for _, typ := range allTypes {
		var counts [2]float64
		for i, n := range []int{30, 1000} {
			counts[i] = testing.AllocsPerRun(10, func() { MustGenerate(typ, n, 1) })
		}
		if counts[0] != counts[1] || counts[1] > 20 {
			t.Errorf("%s: %v allocations at n = 30 and %v at n = 1000, want equal and at most 20", typ, counts[0], counts[1])
		}
	}
}
