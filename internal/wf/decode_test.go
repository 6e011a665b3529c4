package wf

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"budgetwf/internal/stoch"
)

// equalWorkflows describes the first difference between two workflows
// down to the bits of every number and the order of every adjacency
// list, or returns "" when there is none.
func equalWorkflows(a, b *Workflow) string {
	if a.Name != b.Name {
		return fmt.Sprintf("name %q vs %q", a.Name, b.Name)
	}
	if len(a.tasks) != len(b.tasks) || len(a.edges) != len(b.edges) {
		return fmt.Sprintf("%d tasks / %d edges vs %d / %d", len(a.tasks), len(a.edges), len(b.tasks), len(b.edges))
	}
	bits := math.Float64bits
	for i, x := range a.tasks {
		y := b.tasks[i]
		if x.ID != y.ID || x.Name != y.Name || bits(x.Weight.Mean) != bits(y.Weight.Mean) ||
			bits(x.Weight.Sigma) != bits(y.Weight.Sigma) || bits(x.ExternalIn) != bits(y.ExternalIn) ||
			bits(x.ExternalOut) != bits(y.ExternalOut) {
			return fmt.Sprintf("task %d: %+v vs %+v", i, x, y)
		}
	}
	for i, x := range a.edges {
		y := b.edges[i]
		if x.From != y.From || x.To != y.To || bits(x.Size) != bits(y.Size) {
			return fmt.Sprintf("edge %d: %+v vs %+v", i, x, y)
		}
	}
	for i := range a.tasks {
		t := TaskID(i)
		if !slices.Equal(a.In().Of(t), b.In().Of(t)) || !slices.Equal(a.Out().Of(t), b.Out().Of(t)) {
			return fmt.Sprintf("task %d adjacency: in %v / out %v vs %v / %v", t, a.In().Of(t), a.Out().Of(t), b.In().Of(t), b.Out().Of(t))
		}
	}
	return ""
}

// checkDecodeMatchesReflect is the differential property: whenever the
// one-pass path accepts a document, the reflective decoder accepts it
// too and builds an equal workflow; whenever the reflective decoder
// refuses it, the one-pass path declines.
func checkDecodeMatchesReflect(t *testing.T, doc []byte) (fast bool) {
	t.Helper()
	got, ok := decodeFast(string(doc))
	want, err := decodeReflect(doc)
	if !ok {
		return false
	}
	if err != nil {
		t.Fatalf("one-pass path accepted what encoding/json refuses (%v):\n%s", err, doc)
	}
	if diff := equalWorkflows(got, want); diff != "" {
		t.Fatalf("one-pass path and encoding/json disagree: %s\n%s", diff, doc)
	}
	return true
}

// FuzzDecodeMatchesReflect holds Decode's one-pass path to the
// encoding/json decoder it falls back on.
func FuzzDecodeMatchesReflect(f *testing.F) {
	for _, doc := range decodeSeeds {
		f.Add(doc)
	}
	var buf bytes.Buffer
	if err := sizedDAG(12).WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Fuzz(func(t *testing.T, doc string) {
		checkDecodeMatchesReflect(t, []byte(doc))
	})
}

// decodeSeeds are documents on both sides of the decline rule.
var decodeSeeds = []string{
	`{"name":"x","tasks":[{"name":"a","mean":1}],"edges":[]}`,
	`{"name":"d","tasks":[{"name":"a","mean":5,"sigma":1,"externalIn":10},
		{"name":"b","mean":3,"externalOut":2.5e-3}],"edges":[{"from":0,"to":1,"size":100}]}`,
	`{"edges":[{"size":-0,"to":1,"from":0}],"tasks":[{"mean":1},{"mean":2E+2}]}`,
	`{"name":"","tasks":[],"edges":[]}`,
	`{"tasks":[{"name":"a","mean":1e308}],"edges":[]}`,
	`{"tasks":[{"name":"a","mean":1e309}]}`,
	`{"Name":"folded","tasks":[{"name":"a","mean":1}]}`,
	`{"name":"twice","name":"again","tasks":[{"name":"a","mean":1}]}`,
	`{"name":null,"tasks":[{"name":"a","mean":1}]}`,
	`{"name":"escaped","tasks":[{"name":"a\"b","mean":1}]}`,
	`{"name":"néo","tasks":[{"name":"a","mean":1}]}`,
	`{"tasks":[{"mean":1},{"mean":1}],"edges":[{"from":-0,"to":1}]}`,
	`{"tasks":[{"mean":1},{"mean":1}],"edges":[{"from":0,"to":1.0}]}`,
	`{"tasks":[{"mean":1},{"mean":1}],"edges":[{"from":0,"to":1e0}]}`,
	`{"tasks":[{"mean":1},{"mean":1}],"edges":[{"from":00,"to":1}]}`,
	`{"tasks":[{"mean":1},{"mean":1}],"edges":[{"from":0,"to":2}]}`,
	`{"tasks":[{"mean":1},{"mean":1}],"edges":[{"from":1,"to":1}]}`,
	`{"tasks":[{"mean":1},{"mean":1}],"edges":[{"from":0,"to":1,"size":-1}]}`,
	`{"tasks":[{"mean":1},{"mean":1}],"edges":[{"from":0,"to":1},{"from":1,"to":0}]}`,
	`{"tasks":[{"mean":0}]}`,
	`{"tasks":[{"mean":1,"externalIn":-1}]}`,
	`{"tasks":[{"mean":1}]} `,
	`{"tasks":[{"mean":1}]}}`,
	`{"tasks":[{"mean":1}]} {"tasks":[]}`,
	`{"tasks":[{"mean":1,}]}`,
	`{"tasks":[{"mean":1}],"extra":0}`,
	`{"tasks":[{"mean":.5}]}`,
	`{"tasks":[{"mean":1.}]}`,
	`{"tasks":[{"mean":- 1}]}`,
	`null`,
	`not json at all`,
}

// sizedDAG builds an n-task workflow in which every task after the
// first depends on its predecessor and on the task at half its index.
func sizedDAG(n int) *Workflow {
	w := New(fmt.Sprintf("sized-%d", n))
	for i := 0; i < n; i++ {
		id := w.AddTask(fmt.Sprintf("t_%d", i), stoch.Dist{Mean: 1e9 + float64(i)/3, Sigma: float64(i) / 7})
		if i == 0 {
			w.tasks[id].ExternalIn = 1e6
			continue
		}
		w.MustAddEdge(TaskID(i-1), id, 1e3*float64(i))
		if i/2 != i-1 {
			w.MustAddEdge(TaskID(i/2), id, 1e4/float64(i))
		}
	}
	return w
}

func TestDecodeSeeds(t *testing.T) {
	accepted := 0
	for _, doc := range decodeSeeds {
		if checkDecodeMatchesReflect(t, []byte(doc)) {
			accepted++
		}
	}
	// Four seeds spell ordinary workflows, one of them with its members
	// shuffled; a fifth adds trailing whitespace.
	if accepted != 5 {
		t.Errorf("one-pass path accepted %d seeds, want 5", accepted)
	}
}

// TestDecodeAllocsIndependentOfSize: the one-pass path allocates a
// fixed set of objects, whatever the workflow's size.
func TestDecodeAllocsIndependentOfSize(t *testing.T) {
	allocs := make(map[int]float64)
	for _, n := range []int{50, 1000} {
		var buf bytes.Buffer
		if err := sizedDAG(n).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		doc := buf.Bytes()
		if !checkDecodeMatchesReflect(t, doc) {
			t.Fatalf("n = %d: the one-pass path declined a WriteJSON document", n)
		}
		if raceEnabled {
			continue
		}
		allocs[n] = testing.AllocsPerRun(20, func() {
			if _, err := Decode(doc); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[50] != allocs[1000] {
		t.Errorf("Decode allocates %v objects at n = 50 and %v at n = 1000", allocs[50], allocs[1000])
	}
}

// TestDecodedWorkflowExtends: a decoded workflow grows under
// AddTask/AddEdge exactly like one the reflective path built — no
// adjacency window writes into its neighbour's.
func TestDecodedWorkflowExtends(t *testing.T) {
	var buf bytes.Buffer
	if err := sizedDAG(9).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	fast, ok := decodeFast(buf.String())
	if !ok {
		t.Fatal("the one-pass path declined a WriteJSON document")
	}
	slow, err := decodeReflect(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*Workflow{fast, slow} {
		extra := w.AddTask("extra", stoch.Dist{Mean: 2})
		for _, e := range [][2]TaskID{{0, 1}, {3, 4}, {4, extra}, {0, extra}, {7, 8}, {extra, 8}} {
			w.MustAddEdge(e[0], e[1], 5)
		}
	}
	if diff := equalWorkflows(fast, slow); diff != "" {
		t.Fatalf("extended workflows differ: %s", diff)
	}
	if err := fast.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadJSONKeepsReflectiveErrors(t *testing.T) {
	for _, doc := range decodeSeeds {
		_, fastErr := ReadJSON(strings.NewReader(doc))
		_, slowErr := decodeReflect([]byte(doc))
		if fmt.Sprint(fastErr) != fmt.Sprint(slowErr) {
			t.Errorf("%s: ReadJSON says %v, encoding/json %v", doc, fastErr, slowErr)
		}
	}
}

// TestDecodeConcurrent: concurrent decodes share the pooled scratch
// without seeing each other's tasks.
func TestDecodeConcurrent(t *testing.T) {
	docs := make([][]byte, 4)
	want := make([]*Workflow, len(docs))
	for i := range docs {
		var buf bytes.Buffer
		if err := sizedDAG(10 + 7*i).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		docs[i] = buf.Bytes()
		w, err := decodeReflect(docs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				i := (g + r) % len(docs)
				got, err := Decode(docs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if diff := equalWorkflows(got, want[i]); diff != "" {
					t.Errorf("document %d: %s", i, diff)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// pointsInto reports whether sub's bytes lie inside s's.
func pointsInto(sub, s string) bool {
	if len(sub) == 0 || len(s) == 0 {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(sub))), uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return p >= lo && p < lo+uintptr(len(s))
}

// TestDecodeKeepsNoPointerIntoDocument: no string a decode returns
// shares memory with the document, so a decoded workflow or a cached
// algorithm name never keeps a whole request body alive.
func TestDecodeKeepsNoPointerIntoDocument(t *testing.T) {
	var buf bytes.Buffer
	if err := sizedDAG(20).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	body := `{"algorithm":"heftbudg","workflow":` + doc + `,"budget":7}`
	w, ok := decodeFast(doc)
	if !ok {
		t.Fatal("the one-pass path declined a WriteJSON document")
	}
	var algorithm string
	var budget float64
	v, ok := decodeEnvelope(body, "workflow", "algorithm", &algorithm, "budget", &budget)
	if !ok || algorithm != "heftbudg" || budget != 7 {
		t.Fatalf("envelope: ok %v, algorithm %q, budget %v", ok, algorithm, budget)
	}
	if pointsInto(algorithm, body) {
		t.Error("the decoded algorithm points into the body")
	}
	for _, c := range []struct {
		w   *Workflow
		src string
	}{{w, doc}, {v, body}} {
		if c.w.Name == "" || pointsInto(c.w.Name, c.src) {
			t.Errorf("workflow name %q is empty or points into the document", c.w.Name)
		}
		for _, task := range c.w.tasks {
			if pointsInto(task.Name, c.src) {
				t.Fatalf("task name %q points into the document", task.Name)
			}
		}
	}
}

// TestDeclinedEnvelopeBuildsNothing: an envelope that declines on a
// member after its workflow — the order json.Marshal gives a struct
// with a platform — allocates no more than one that declines at its
// first byte: the workflow is built only once the whole body is
// accepted.
func TestDeclinedEnvelopeBuildsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's sync.Pool drops items, so allocation counts vary")
	}
	var buf bytes.Buffer
	if err := sizedDAG(200).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	decline := func(body string) float64 {
		return testing.AllocsPerRun(20, func() {
			var algorithm string
			var budget float64
			if _, ok := decodeEnvelope(body, "workflow", "algorithm", &algorithm, "budget", &budget); ok {
				t.Fatalf("envelope accepted %.40s…", body)
			}
		})
	}
	late := decline(`{"workflow":` + buf.String() + `,"algorithm":"heft","platform":{}}`)
	early := decline(`{"platform":{},"workflow":` + buf.String() + `}`)
	if late != early {
		t.Errorf("a body declined after its workflow allocates %v objects, one declined at once %v", late, early)
	}
}
