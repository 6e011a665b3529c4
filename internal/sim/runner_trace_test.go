package sim

import (
	"reflect"
	"testing"

	"budgetwf/internal/obs"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/stoch"
	"budgetwf/internal/wf"
)

// TestRunnerReplicationSpans checks that a Runner with an attached
// span opens one numbered "replication" child per execution carrying
// the realized makespan, cost and VM count — the same from Run and
// from Score — and that detaching returns the hot path to a pointer
// check.
func TestRunnerReplicationSpans(t *testing.T) {
	w := wf.New("r")
	a := w.AddTask("a", stoch.Dist{Mean: 100})
	b := w.AddTask("b", stoch.Dist{Mean: 50})
	w.MustAddEdge(a, b, 40)
	s := plan.New(2)
	s.ListT = []wf.TaskID{a, b}
	s.Assign(a, s.AddVM(0))
	s.Assign(b, s.AddVM(0))
	weights := ConservativeWeights(w)

	fluid := testPlatform()
	fluid.DCBandwidth = fluid.Bandwidth // Score falls back to Run
	for _, p := range []*platform.Platform{testPlatform(), fluid} {
		var trees [2][]*obs.SpanJSON
		for entry, exec := range []func(r *Runner, weights []float64) error{
			func(r *Runner, weights []float64) error { _, err := r.Run(weights); return err },
			func(r *Runner, weights []float64) error { _, _, err := r.Score(weights); return err },
		} {
			r, err := NewRunner(w, p, s)
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.New("batch")
			r.SetSpan(tr.Root())
			const reps = 3
			for i := 0; i < reps; i++ {
				if err := exec(r, weights); err != nil {
					t.Fatal(err)
				}
			}
			if err := exec(r, []float64{1, -1}); err == nil {
				t.Fatal("negative weight accepted")
			}
			r.SetSpan(nil)
			if err := exec(r, weights); err != nil {
				t.Fatal(err)
			}
			tr.EndAll()

			root := tr.Tree().Root
			if len(root.Children) != reps {
				t.Fatalf("replication children = %d, want %d", len(root.Children), reps)
			}
			for i, c := range root.Children {
				if c.Name != "replication" {
					t.Fatalf("child %d named %q", i, c.Name)
				}
				if got := c.Attrs["rep"]; got != int64(i) {
					t.Errorf("child %d rep attr = %v (%T)", i, got, got)
				}
				ms, ok := c.Attrs["makespan"].(float64)
				if !ok || ms <= 0 {
					t.Errorf("child %d makespan attr = %v", i, c.Attrs["makespan"])
				}
				if got := c.Attrs["vms"]; got != int64(2) {
					t.Errorf("child %d vms attr = %v (%T)", i, got, got)
				}
			}
			trees[entry] = root.Children
		}
		for i := range trees[0] {
			if !reflect.DeepEqual(trees[0][i].Attrs, trees[1][i].Attrs) {
				t.Errorf("replication %d: Run records %v, Score records %v", i, trees[0][i].Attrs, trees[1][i].Attrs)
			}
		}
	}
}

// TestRunnerErrorSpan: an execution that fails inside the engine
// records the error on its replication span, from both entry points.
func TestRunnerErrorSpan(t *testing.T) {
	// x waits for y2, queued behind y1, which waits for x: a deadlock
	// the per-VM validation cannot see.
	w := wf.New("cycle")
	x := w.AddTask("x", stoch.Dist{Mean: 10})
	y1 := w.AddTask("y1", stoch.Dist{Mean: 10})
	y2 := w.AddTask("y2", stoch.Dist{Mean: 10})
	w.MustAddEdge(y2, x, 1)
	w.MustAddEdge(x, y1, 1)
	s := plan.New(3)
	s.ListT = []wf.TaskID{x, y1, y2}
	vx, vy := s.AddVM(0), s.AddVM(0)
	s.Assign(x, vx)
	s.Assign(y1, vy)
	s.Assign(y2, vy)
	r, err := NewRunner(w, testPlatform(), s)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New("batch")
	r.SetSpan(tr.Root())
	_, errRun := r.Run(ConservativeWeights(w))
	_, _, errScore := r.Score(ConservativeWeights(w))
	tr.EndAll()
	const want = "sim: deadlock with 0/3 tasks finished"
	if errRun == nil || errScore == nil || errRun.Error() != want || errScore.Error() != want {
		t.Fatalf("errors %v / %v, want %q twice", errRun, errScore, want)
	}
	for i, c := range tr.Tree().Root.Children {
		if got := c.Attrs["error"]; got != want || c.Attrs["rep"] != int64(i) {
			t.Errorf("replication %d attrs = %v", i, c.Attrs)
		}
	}
}
