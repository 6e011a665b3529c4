package online

import (
	"testing"

	"budgetwf/internal/fault"
	"budgetwf/internal/obs"
)

// eventsByName flattens every event on the span tree.
func eventsByName(s *obs.SpanJSON, into map[string][]obs.EventJSON) {
	for _, e := range s.Events {
		into[e.Name] = append(into[e.Name], e)
	}
	for _, c := range s.Children {
		eventsByName(c, into)
	}
}

// TestFaultLifecycleTrace replays the deterministic crash scenario of
// TestCrashLosesLocalDataAndRetriesSame with a span attached and
// checks the fault lifecycle lands on it: the crash with its lost
// tasks, one task-lost per destroyed task, the retry-same recovery,
// and the settled summary attributes.
func TestFaultLifecycleTrace(t *testing.T) {
	w, s := chainCase(2)
	p := faultTestPlatform()
	weights := []float64{100, 100}
	tr := obs.New("exec")
	pol := Policy{
		Faults: injection(
			&scriptModel{traces: []*scriptTrace{{crashAt: 150}}},
			fault.Recovery{Kind: fault.RetrySame},
		),
		Span: tr.Root(),
	}
	rep, err := Execute(w, p, s, weights, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.Crashes != 1 {
		t.Fatalf("fixture drifted: completed=%v crashes=%d", rep.Completed, rep.Crashes)
	}
	tr.EndAll()
	events := map[string][]obs.EventJSON{}
	eventsByName(tr.Tree().Root, events)

	crashes := events["crash"]
	if len(crashes) != 1 {
		t.Fatalf("crash events = %d, want 1", len(crashes))
	}
	if at := crashes[0].Attrs["at"]; at != 160.0 {
		t.Errorf("crash at = %v, want 160", at)
	}
	if lost := crashes[0].Attrs["tasksLost"]; lost != int64(2) {
		t.Errorf("crash tasksLost = %v (%T), want 2", lost, lost)
	}
	// Both A (local output died) and B (in progress) are lost.
	if got := len(events["task-lost"]); got != 2 {
		t.Errorf("task-lost events = %d, want 2", got)
	}
	recs := events["recovery"]
	if len(recs) != 1 {
		t.Fatalf("recovery events = %d, want 1", len(recs))
	}
	if pol := recs[0].Attrs["policy"]; pol != fault.RetrySame.String() {
		t.Errorf("recovery policy = %v, want %v", pol, fault.RetrySame.String())
	}
	if tasks := recs[0].Attrs["tasks"]; tasks != int64(2) {
		t.Errorf("recovery tasks = %v, want 2", tasks)
	}

	root := tr.Tree().Root
	if root.Attrs["crashes"] != int64(1) || root.Attrs["recoveries"] != int64(1) {
		t.Errorf("summary attrs = %v", root.Attrs)
	}
	if root.Attrs["makespan"] != rep.Makespan {
		t.Errorf("summary makespan = %v, want %v", root.Attrs["makespan"], rep.Makespan)
	}
	if root.Attrs["completed"] != true {
		t.Errorf("summary completed = %v", root.Attrs["completed"])
	}
}

// TestCheckpointRestoreTraced reuses the checkpoint fixture: when a
// producer's output already reached the datacenter before the crash,
// its reset emits a checkpoint-restore event instead of re-running.
func TestCheckpointRestoreTraced(t *testing.T) {
	// Chain of 3 on one VM with an extra consumer on a second VM so A's
	// output uploads to the DC (cross-VM edge) before the crash.
	w, s := chainCase(2)
	p := faultTestPlatform()
	tr := obs.New("exec")
	pol := Policy{
		Faults: injection(
			// First VM crashes during B; A's output is local-only, so A is
			// lost too — but any output that DID reach the DC restores.
			&scriptModel{traces: []*scriptTrace{{crashAt: 150}}},
			fault.Recovery{Kind: fault.ResubmitFastest},
		),
		Span: tr.Root(),
	}
	rep, err := Execute(w, p, s, []float64{100, 100}, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("fixture drifted: run did not complete")
	}
	tr.EndAll()
	events := map[string][]obs.EventJSON{}
	eventsByName(tr.Tree().Root, events)
	if got := events["recovery"]; len(got) != 1 ||
		got[0].Attrs["policy"] != fault.ResubmitFastest.String() {
		t.Errorf("recovery events = %v", got)
	}
	// ExecuteFaulty wires the same plumbing through the public API.
	tr2 := obs.New("exec2")
	spec := &fault.Spec{}
	if _, err := ExecuteFaulty(w, p, s, []float64{100, 100}, spec, 0, tr2.Root()); err != nil {
		t.Fatalf("ExecuteFaulty: %v", err)
	}
	tr2.EndAll()
	if tr2.Tree().Root.Attrs["completed"] != true {
		t.Errorf("ExecuteFaulty summary missing: %v", tr2.Tree().Root.Attrs)
	}
}
