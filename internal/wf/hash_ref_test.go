package wf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"budgetwf/internal/stoch"
)

// canonicalHashReference is CanonicalHash as it was first written: a
// fresh hasher per digest, string-sorted multisets, one slice per
// neighbourhood. It defines the digest values; the arena
// implementation in hash.go must return the same string on every
// workflow. It lives in the test files only.
func canonicalHashReference(w *Workflow) string {
	n := len(w.tasks)
	cur := make([][]byte, n)
	for i, t := range w.tasks {
		h := sha256.New()
		h.Write([]byte("task"))
		refWriteF64(h, t.Weight.Mean)
		refWriteF64(h, t.Weight.Sigma)
		refWriteF64(h, t.ExternalIn)
		refWriteF64(h, t.ExternalOut)
		cur[i] = h.Sum(nil)
	}

	// Refine: absorb predecessor and successor digests (with edge
	// payloads) as sorted multisets. hashRounds iterations capture
	// hashRounds-hop neighborhoods, ample to distinguish any two
	// non-isomorphic workflows that scheduling could treat differently;
	// genuinely isomorphic ones should collide, by design.
	next := make([][]byte, n)
	for round := 0; round < hashRounds; round++ {
		for i := range w.tasks {
			h := sha256.New()
			h.Write(cur[i])
			h.Write([]byte("pred"))
			refWriteSortedNeighborhood(h, refEdgesOf(w, w.In().Of(TaskID(i))), cur, true)
			h.Write([]byte("succ"))
			refWriteSortedNeighborhood(h, refEdgesOf(w, w.Out().Of(TaskID(i))), cur, false)
			next[i] = h.Sum(nil)
		}
		cur, next = next, cur
	}

	// Aggregate: the sorted multiset of final task digests plus the
	// sorted multiset of edge digests.
	taskDigests := make([]string, n)
	for i, d := range cur {
		taskDigests[i] = string(d)
	}
	sort.Strings(taskDigests)
	edgeDigests := make([]string, len(w.edges))
	for i, e := range w.edges {
		h := sha256.New()
		h.Write([]byte("edge"))
		h.Write(cur[e.From])
		h.Write(cur[e.To])
		refWriteF64(h, e.Size)
		edgeDigests[i] = string(h.Sum(nil))
	}
	sort.Strings(edgeDigests)

	h := sha256.New()
	h.Write([]byte("workflow"))
	var count [8]byte
	binary.BigEndian.PutUint64(count[:], uint64(n))
	h.Write(count[:])
	for _, d := range taskDigests {
		h.Write([]byte(d))
	}
	for _, d := range edgeDigests {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// refEdgesOf resolves edge indices to Edge values.
func refEdgesOf(w *Workflow, idxs []int) []Edge {
	out := make([]Edge, len(idxs))
	for i, e := range idxs {
		out[i] = w.edges[e]
	}
	return out
}

// refWriteSortedNeighborhood hashes the multiset of (neighbor digest,
// payload size) pairs in sorted order, so sibling enumeration order
// cannot leak into the digest. fromSide selects which endpoint of each
// edge is the neighbor.
func refWriteSortedNeighborhood(h interface{ Write([]byte) (int, error) }, edges []Edge, digests [][]byte, fromSide bool) {
	items := make([]string, len(edges))
	for i, e := range edges {
		neighbor := e.To
		if fromSide {
			neighbor = e.From
		}
		var size [8]byte
		binary.BigEndian.PutUint64(size[:], math.Float64bits(e.Size))
		items[i] = string(digests[neighbor]) + string(size[:])
	}
	sort.Strings(items)
	for _, it := range items {
		h.Write([]byte(it))
	}
}

// refWriteF64 hashes the exact IEEE-754 bit pattern of v.
func refWriteF64(h interface{ Write([]byte) (int, error) }, v float64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

// CanonicalHashReference exports the reference to the external tests,
// which can import the generators.
var CanonicalHashReference = canonicalHashReference

func checkAgainstReference(t *testing.T, desc string, w *Workflow) {
	t.Helper()
	if got, want := w.CanonicalHash(), canonicalHashReference(w); got != want {
		t.Errorf("%s: CanonicalHash = %s, reference = %s", desc, got, want)
	}
}

// TestCanonicalHashMatchesReferenceDegenerate covers the shapes where
// an arena or a sort could go wrong: no tasks, no edges, one level,
// one chain, and neighbourhoods whose items tie.
func TestCanonicalHashMatchesReferenceDegenerate(t *testing.T) {
	checkAgainstReference(t, "zero value", &Workflow{})
	checkAgainstReference(t, "empty", New("empty"))

	single := New("single")
	single.AddTask("a", stoch.Dist{Mean: 7, Sigma: 1})
	checkAgainstReference(t, "single task", single)

	level := New("level")
	for i := 0; i < 17; i++ {
		level.AddTask("t", stoch.Dist{Mean: float64(1 + i%3)})
	}
	checkAgainstReference(t, "one level", level)

	chain := New("chain")
	prev := chain.AddTask("t", stoch.Dist{Mean: 5})
	for i := 0; i < 40; i++ {
		next := chain.AddTask("t", stoch.Dist{Mean: 5})
		chain.MustAddEdge(prev, next, 0) // identical tasks, zero-size edges
		prev = next
	}
	checkAgainstReference(t, "chain of identical tasks", chain)

	// A fan whose spokes are indistinguishable, with parallel edges of
	// equal and of different sizes between one pair.
	fan := New("fan")
	hub := fan.AddTask("hub", stoch.Dist{Mean: 9, Sigma: 2})
	sink := fan.AddTask("sink", stoch.Dist{Mean: 3})
	for i := 0; i < 12; i++ {
		spoke := fan.AddTask("spoke", stoch.Dist{Mean: 4})
		fan.MustAddEdge(hub, spoke, 1e6)
		fan.MustAddEdge(spoke, sink, float64(i%2)*5e5)
	}
	fan.MustAddEdge(hub, sink, 1e6)
	fan.MustAddEdge(hub, sink, 1e6)
	fan.MustAddEdge(hub, sink, 2e6)
	checkAgainstReference(t, "fan with tied and parallel edges", fan)

	for _, perm := range [][4]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 0, 3, 2}} {
		checkAgainstReference(t, fmt.Sprintf("diamond %v", perm), hashDiamond(t, perm))
	}
}

func TestCanonicalHashMatchesReferenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		checkAgainstReference(t, fmt.Sprintf("random DAG %d", i), randomDAG(r, 60))
	}
}

// FuzzCanonicalHashMatchesReference: on any document the parser
// accepts, the two implementations agree.
func FuzzCanonicalHashMatchesReference(f *testing.F) {
	f.Add(`{"name":"x","tasks":[{"name":"a","mean":1}],"edges":[]}`)
	f.Add(`{"name":"","tasks":[],"edges":[]}`)
	f.Add(`{"name":"d","tasks":[{"name":"a","mean":5,"sigma":1,"externalIn":10},
		{"name":"b","mean":3}],"edges":[{"from":0,"to":1,"size":100}]}`)
	f.Add(`{"tasks":[{"name":"a","mean":2},{"name":"b","mean":2},{"name":"c","mean":2,"externalOut":1}],
		"edges":[{"from":0,"to":2,"size":0},{"from":1,"to":2,"size":0},{"from":0,"to":1,"size":7}]}`)
	f.Add(`{"tasks":[{"name":"a","mean":1},{"name":"b","mean":1}],
		"edges":[{"from":0,"to":1,"size":3},{"from":0,"to":1,"size":3},{"from":0,"to":1,"size":4}]}`)
	f.Add(`{"tasks":[{"name":"a","mean":1e308,"sigma":1e-308}],"edges":[]}`)
	f.Fuzz(func(t *testing.T, doc string) {
		w, err := ReadJSON(strings.NewReader(doc))
		if err != nil {
			return
		}
		checkAgainstReference(t, "fuzzed document", w)
	})
}
