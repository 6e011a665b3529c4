package wf_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"budgetwf/internal/stoch"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// checkIndex compares every structural read with a naive scan of the
// edge list.
func checkIndex(t *testing.T, desc string, w *wf.Workflow) {
	t.Helper()
	n, edges := w.NumTasks(), w.Edges()
	in, out := make([][]int, n), make([][]int, n)
	for i, e := range edges {
		in[e.To] = append(in[e.To], i)
		out[e.From] = append(out[e.From], i)
	}
	at := func(idx []int) []wf.Edge {
		es := []wf.Edge{}
		for _, i := range idx {
			es = append(es, edges[i])
		}
		return es
	}
	var entries, exits []wf.TaskID
	for id := range wf.TaskID(n) {
		if got := w.In().Of(id); !slices.Equal(got, in[id]) {
			t.Fatalf("%s: In().Of(%d) = %v, want %v", desc, id, got, in[id])
		}
		if got := w.Out().Of(id); !slices.Equal(got, out[id]) {
			t.Fatalf("%s: Out().Of(%d) = %v, want %v", desc, id, got, out[id])
		}
		if got := w.Pred(id); !slices.Equal(got, at(in[id])) {
			t.Fatalf("%s: Pred(%d) = %v, want %v", desc, id, got, at(in[id]))
		}
		if got := w.Succ(id); !slices.Equal(got, at(out[id])) {
			t.Fatalf("%s: Succ(%d) = %v, want %v", desc, id, got, at(out[id]))
		}
		if w.NumPred(id) != len(in[id]) || w.NumSucc(id) != len(out[id]) {
			t.Fatalf("%s: task %d degrees %d/%d, want %d/%d", desc, id, w.NumPred(id), w.NumSucc(id), len(in[id]), len(out[id]))
		}
		if len(in[id]) == 0 {
			entries = append(entries, id)
		}
		if len(out[id]) == 0 {
			exits = append(exits, id)
		}
	}
	if got := w.Entries(); !slices.Equal(got, entries) {
		t.Fatalf("%s: Entries() = %v, want %v", desc, got, entries)
	}
	if got := w.Exits(); !slices.Equal(got, exits) {
		t.Fatalf("%s: Exits() = %v, want %v", desc, got, exits)
	}
}

// randomGraph builds n tasks joined by random edges in both directions,
// parallel edges included; it is cyclic more often than not.
func randomGraph(r *rand.Rand, n int) *wf.Workflow {
	w := wf.New(fmt.Sprintf("random-%d", n))
	for i := range n {
		w.AddTask(fmt.Sprintf("t%d", i), stoch.Dist{Mean: 1})
	}
	for range r.Intn(3 * n) {
		a, b := wf.TaskID(r.Intn(n)), wf.TaskID(r.Intn(n))
		if a != b {
			w.MustAddEdge(a, b, float64(r.Intn(100)))
		}
	}
	return w
}

func TestIndexMatchesEdges(t *testing.T) {
	for _, typ := range []wfgen.Type{wfgen.CyberShake, wfgen.Ligo, wfgen.Montage, wfgen.Epigenomics,
		wfgen.Sipht, wfgen.Random, wfgen.Chain, wfgen.ForkJoin, wfgen.BagOfTasks} {
		for seed := range uint64(3) {
			w := wfgen.MustGenerate(typ, 30, seed)
			desc := fmt.Sprintf("%s seed %d", typ, seed)
			checkIndex(t, desc, w)
			var buf bytes.Buffer
			if err := w.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			d, err := wf.Decode(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			checkIndex(t, desc+" decoded", d)
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := range 50 {
		checkIndex(t, fmt.Sprintf("random graph %d", i), randomGraph(r, 1+r.Intn(20)))
	}
	checkIndex(t, "empty", wf.New("empty"))

	// AddTask and AddEdge on a workflow whose index is built are seen by
	// the next read, and a clone that shares the index is not disturbed
	// by them.
	w := wfgen.MustGenerate(wfgen.Montage, 30, 2)
	c := w.Clone()
	checkIndex(t, "before", w)
	x := w.AddTask("extra", stoch.Dist{Mean: 1})
	checkIndex(t, "after AddTask", w)
	w.MustAddEdge(x, 0, 5)
	w.MustAddEdge(3, x, 7)
	checkIndex(t, "after AddEdge", w)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	w.MustAddEdge(0, 3, 1) // 3 → x → 0 → 3
	if err := w.Validate(); err == nil {
		t.Error("a cycle closed after the index was built went unseen")
	}
	checkIndex(t, "clone", c)
	if c.NumTasks() != 30 || c.Validate() != nil {
		t.Error("changes to the original reached its clone")
	}
}

// TestIndexFirstReadConcurrent makes the first structural read of fresh
// workflows from several goroutines at once; under -race it checks that
// publishing the index is safe.
func TestIndexFirstReadConcurrent(t *testing.T) {
	for seed := range uint64(8) {
		w := wfgen.MustGenerate(wfgen.Montage, 90, seed)
		want, err := w.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		w.AddTask("fresh", stoch.Dist{Mean: 1}) // drops the index
		want = append(want, wf.TaskID(w.NumTasks()-1))
		var wg sync.WaitGroup
		got := make([][]wf.TaskID, 4)
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				switch g % 2 {
				case 0:
					got[g], _ = w.TopoOrder()
				case 1:
					_ = w.Entries()
					got[g], _ = w.TopoOrder()
				}
			}()
		}
		wg.Wait()
		for g := range got {
			if !slices.Equal(got[g], want) {
				t.Fatalf("seed %d, reader %d: order %v, want %v", seed, g, got[g], want)
			}
		}
		checkIndex(t, "after concurrent first reads", w)
	}
}
