package wf_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"budgetwf/internal/stoch"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// topoOrderReference is TopoOrder as first written: Kahn's algorithm
// over per-task successor lists, sorting the whole frontier before
// every pop so that the smallest ready ID goes first.
func topoOrderReference(w *wf.Workflow) ([]wf.TaskID, error) {
	n := w.NumTasks()
	indeg := make([]int, n)
	succ := make([][]int, n)
	for i, e := range w.Edges() {
		indeg[e.To]++
		succ[e.From] = append(succ[e.From], i)
	}
	frontier := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			frontier = append(frontier, i)
		}
	}
	edges := w.Edges()
	order := make([]wf.TaskID, 0, n)
	for len(frontier) > 0 {
		sort.Ints(frontier)
		next := frontier[0]
		frontier = frontier[1:]
		order = append(order, wf.TaskID(next))
		for _, e := range succ[next] {
			to := int(edges[e].To)
			indeg[to]--
			if indeg[to] == 0 {
				frontier = append(frontier, to)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("wf: workflow %q has a cycle (%d of %d tasks ordered)", w.Name, len(order), n)
	}
	return order, nil
}

// permutedDAG builds a random DAG whose topological order is a random
// permutation of the IDs, so that the order a min-heap picks is not
// simply ascending ID.
func permutedDAG(r *rand.Rand, n int) *wf.Workflow {
	w := wf.New(fmt.Sprintf("dag-%d", n))
	for i := range n {
		w.AddTask(fmt.Sprintf("t%d", i), stoch.Dist{Mean: 1})
	}
	perm := r.Perm(n)
	for i := range n {
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.1 {
				w.MustAddEdge(wf.TaskID(perm[i]), wf.TaskID(perm[j]), 1)
			}
		}
	}
	return w
}

func checkTopoAgainstReference(t *testing.T, desc string, w *wf.Workflow) {
	t.Helper()
	want, wantErr := topoOrderReference(w)
	got, err := w.TopoOrder()
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
		t.Fatalf("%s: TopoOrder = %v, %v; reference %v, %v", desc, got, err, want, wantErr)
	}
	if fmt.Sprint(w.Validate()) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: Validate = %v, reference cycle verdict %v", desc, w.Validate(), wantErr)
	}
}

// TestTopoOrderMatchesReference: on random DAGs, on random graphs that
// are mostly cyclic and on every generated family, TopoOrder returns the
// reference's order, or its error.
func TestTopoOrderMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := range 200 {
		n := 1 + r.Intn(60)
		checkTopoAgainstReference(t, fmt.Sprintf("dag %d", i), permutedDAG(r, n))
		cyc := permutedDAG(r, n+2)
		if e := cyc.Edges(); len(e) > 0 {
			last := e[r.Intn(len(e))]
			cyc.MustAddEdge(last.To, last.From, 1) // closes a two-cycle
		}
		checkTopoAgainstReference(t, fmt.Sprintf("cyclic %d", i), cyc)
		checkTopoAgainstReference(t, fmt.Sprintf("graph %d", i), randomGraph(r, n))
	}
	for _, typ := range []wfgen.Type{wfgen.CyberShake, wfgen.Ligo, wfgen.Montage, wfgen.Epigenomics, wfgen.Sipht, wfgen.Random} {
		checkTopoAgainstReference(t, string(typ), wfgen.MustGenerate(typ, 90, 4))
	}
}
