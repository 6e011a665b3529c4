package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"budgetwf/internal/reqerr"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// sameWorkflow describes the first difference between two workflows —
// labels, the bits of every number, edge order and every task's
// predecessor and successor order — or returns "" when there is none.
func sameWorkflow(a, b *wf.Workflow) string {
	if a.Name != b.Name || a.NumTasks() != b.NumTasks() || a.NumEdges() != b.NumEdges() {
		return fmt.Sprintf("%q with %d tasks and %d edges vs %q with %d and %d",
			a.Name, a.NumTasks(), a.NumEdges(), b.Name, b.NumTasks(), b.NumEdges())
	}
	bits := math.Float64bits
	for i, x := range a.TasksView() {
		y := b.TasksView()[i]
		if x.ID != y.ID || x.Name != y.Name || bits(x.Weight.Mean) != bits(y.Weight.Mean) ||
			bits(x.Weight.Sigma) != bits(y.Weight.Sigma) || bits(x.ExternalIn) != bits(y.ExternalIn) ||
			bits(x.ExternalOut) != bits(y.ExternalOut) {
			return fmt.Sprintf("task %d: %+v vs %+v", i, x, y)
		}
	}
	sameEdges := func(x, y []wf.Edge) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].From != y[i].From || x[i].To != y[i].To || bits(x[i].Size) != bits(y[i].Size) {
				return false
			}
		}
		return true
	}
	if !sameEdges(a.EdgesView(), b.EdgesView()) {
		return "edges differ"
	}
	for i := 0; i < a.NumTasks(); i++ {
		id := wf.TaskID(i)
		if !sameEdges(a.Pred(id), b.Pred(id)) || !sameEdges(a.Succ(id), b.Succ(id)) {
			return fmt.Sprintf("task %d: adjacency differs", i)
		}
	}
	return ""
}

// serveMissBody spells a /v1/schedule body the way the repository
// benchmark's serve workloads do: the compacted workflow first, then
// the algorithm and the budget.
func serveMissBody(t testing.TB, typ wfgen.Type, n int, seed uint64) []byte {
	t.Helper()
	body, err := json.Marshal(struct {
		Workflow  json.RawMessage `json:"workflow"`
		Algorithm string          `json:"algorithm"`
		Budget    float64         `json:"budget"`
	}{familyWorkflowJSON(t, typ, n, seed), "heftbudg", 3.0625})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// checkScheduleDecode is the differential property of the one-pass
// envelope: whenever it accepts a body, reqerr.DecodeStrict and
// parseWorkflow accept it too, with the same algorithm, budget and
// workflow and no platform or market; whenever they refuse it, it
// declines; and when it declines, it leaves the request untouched.
func checkScheduleDecode(t *testing.T, body []byte) (fast bool) {
	t.Helper()
	var got scheduleRequest
	gotWf, ok := decodeScheduleFast(body, &got)
	var want scheduleRequest
	err := reqerr.DecodeStrict(bytes.NewReader(body), &want)
	var wantWf *wf.Workflow
	if err == nil {
		wantWf, err = parseWorkflow(want.Workflow)
	}
	if !ok {
		if got.Algorithm != "" || math.Float64bits(got.Budget) != 0 {
			t.Fatalf("declining envelope wrote %q/%v into the request:\n%s", got.Algorithm, got.Budget, body)
		}
		return false
	}
	if err != nil {
		t.Fatalf("one-pass envelope accepted what the strict path refuses (%v):\n%s", err, body)
	}
	if got.Algorithm != want.Algorithm || math.Float64bits(got.Budget) != math.Float64bits(want.Budget) ||
		len(want.Platform) != 0 || len(want.Market) != 0 {
		t.Fatalf("one-pass envelope read %q/%v, the strict path %q/%v with platform %q and market %q:\n%s",
			got.Algorithm, got.Budget, want.Algorithm, want.Budget, want.Platform, want.Market, body)
	}
	if diff := sameWorkflow(gotWf, wantWf); diff != "" {
		t.Fatalf("one-pass envelope and the strict path decode different workflows: %s\n%s", diff, body)
	}
	return true
}

// FuzzScheduleRequest holds the one-pass /v1/schedule envelope to
// reqerr.DecodeStrict and parseWorkflow, the path it replaces.
func FuzzScheduleRequest(f *testing.F) {
	for _, body := range malformedScheduleBodies {
		f.Add([]byte(body))
	}
	wfJSON := workflowJSON(f, 15, 4)
	for _, body := range [][]byte{
		scheduleBody(f, wfJSON, "heftbudg", 50),
		scheduleBody(f, wfJSON, "zigzag", 1),
		scheduleBody(f, wfJSON, "heft", -1),
		append(scheduleBody(f, wfJSON, "heft", 1), " {}"...),
		append(scheduleBody(f, wfJSON, "heft", 1), '}'),
		serveMissBody(f, wfgen.Ligo, 20, 1),
		[]byte(`{"workflow":{"name":"c","tasks":[{"name":"a","mean":1},{"name":"b","mean":1}],"edges":[{"from":0,"to":1},{"from":1,"to":0}]},"algorithm":"heft"}`),
		[]byte(`{"algorithm": "heft", "budget": 5}`),
		[]byte(`{"workflow":{"tasks":[{"mean":1}]},"algorithm":"heft","budget":1,"platform":null}`),
		[]byte(`{"workflow":{"tasks":[{"mean":1}]},"Algorithm":"heft"}`),
		[]byte(`{"workflow":{"tasks":[{"mean":1}]},"algorithm":"he\u0066t","budget":1e400}`),
		[]byte(`{"workflow":{"tasks":[{"mean":1}]},"workflow":{"tasks":[{"mean":2}]}}`),
		[]byte(` {"budget":0.5,"workflow":{"edges":[],"tasks":[{"mean":1}],"name":"w"}}` + "\n"),
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkScheduleDecode(t, body)
	})
}

// TestScheduleEnvelopeTakesFastPath: the bodies the serve workloads
// and the daemon bench suite send take the one pass, and the seeds of
// the fuzz target hold the property.
func TestScheduleEnvelopeTakesFastPath(t *testing.T) {
	for _, typ := range wfgen.AllPaperTypes() {
		body := serveMissBody(t, typ, 90, 2)
		if !checkScheduleDecode(t, body) {
			t.Errorf("%s: the one-pass envelope declined a serve-miss body", typ)
		}
	}
	// json.Marshal of a map sorts the keys: the workflow comes last.
	if !checkScheduleDecode(t, scheduleBody(t, workflowJSON(t, 50, 1), "heftbudg", 100)) {
		t.Error("the one-pass envelope declined a body with the workflow last")
	}
	for name, body := range malformedScheduleBodies {
		if checkScheduleDecode(t, []byte(body)) {
			t.Errorf("%s: the one-pass envelope accepted a malformed body", name)
		}
	}
}
