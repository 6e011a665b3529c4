package wf

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
)

// CanonicalHash returns a hex-encoded SHA-256 digest identifying the
// workflow's structure and parameters — tasks (weight distribution and
// external I/O volumes), edges (endpoints and payload sizes) — in a
// representation independent of task-insertion order. Two workflows
// that differ only by the order in which AddTask/AddEdge were called,
// or by a JSON save/load round-trip, hash identically; any change to a
// weight, a data size, or the DAG shape changes the digest.
//
// Labels (the workflow Name and task Names) are deliberately excluded:
// they do not influence any scheduling decision, so including them
// would defeat content-addressed caching of plans (the primary use of
// this hash) for structurally identical requests.
//
// The digest is computed by Weisfeiler–Leman-style refinement: each
// task starts from a digest of its own parameters, then absorbs the
// sorted digests of its neighborhood over hashRounds iterations, so
// that position in the DAG — not just local content — is captured.
// Float parameters are hashed through their IEEE-754 bit patterns,
// which Go's encoding/json round-trips exactly.
//
// The byte stream fed to SHA-256 is fixed (canonicalHashReference in
// the tests spells it out and the two are compared digest for digest);
// this implementation only arranges to produce it without garbage:
// digests in flat arenas and every record assembled in one reused
// buffer, so a call allocates a constant number of objects whatever
// the workflow's size.
func (w *Workflow) CanonicalHash() string {
	n := len(w.tasks)
	in, out := w.In(), w.Out()
	maxDeg := 0
	for i := range w.tasks {
		maxDeg = max(maxDeg, len(in.Of(TaskID(i))), len(out.Of(TaskID(i))))
	}
	cur := make([][sha256.Size]byte, n)
	next := make([][sha256.Size]byte, n)
	items := make([]neighbor, maxDeg)
	// The longest record is a refinement one: own digest, two tags and
	// both neighbourhoods.
	rec := make([]byte, 0, sha256.Size+8+2*maxDeg*len(neighbor{}))

	for i, t := range w.tasks {
		rec = append(rec[:0], "task"...)
		rec = appendF64(rec, t.Weight.Mean)
		rec = appendF64(rec, t.Weight.Sigma)
		rec = appendF64(rec, t.ExternalIn)
		rec = appendF64(rec, t.ExternalOut)
		cur[i] = sha256.Sum256(rec)
	}

	// Refine: absorb predecessor and successor digests (with edge
	// payloads) as sorted multisets. hashRounds iterations capture
	// hashRounds-hop neighborhoods, ample to distinguish any two
	// non-isomorphic workflows that scheduling could treat differently;
	// genuinely isomorphic ones should collide, by design.
	for round := 0; round < hashRounds; round++ {
		for i := range w.tasks {
			rec = append(rec[:0], cur[i][:]...)
			rec = append(rec, "pred"...)
			rec = w.appendSortedNeighborhood(rec, items, in.Of(TaskID(i)), cur, true)
			rec = append(rec, "succ"...)
			rec = w.appendSortedNeighborhood(rec, items, out.Of(TaskID(i)), cur, false)
			next[i] = sha256.Sum256(rec)
		}
		cur, next = next, cur
	}

	// Aggregate: the sorted multiset of final task digests plus the
	// sorted multiset of edge digests. The edge digests read the task
	// digests by index, so they are taken before those are sorted.
	edgeDigests := make([][sha256.Size]byte, len(w.edges))
	for i, e := range w.edges {
		rec = append(rec[:0], "edge"...)
		rec = append(rec, cur[e.From][:]...)
		rec = append(rec, cur[e.To][:]...)
		rec = appendF64(rec, e.Size)
		edgeDigests[i] = sha256.Sum256(rec)
	}
	slices.SortFunc(cur, compareDigests)
	slices.SortFunc(edgeDigests, compareDigests)

	h := sha256.New()
	rec = append(rec[:0], "workflow"...)
	rec = binary.BigEndian.AppendUint64(rec, uint64(n))
	h.Write(rec)
	for i := range cur {
		h.Write(cur[i][:])
	}
	for i := range edgeDigests {
		h.Write(edgeDigests[i][:])
	}
	return hex.EncodeToString(h.Sum(rec[:0]))
}

// hashRounds is the neighborhood radius of the refinement. Eight hops
// separate every workflow shape the generators or the schedulers
// distinguish; deep chains beyond that radius differ in their sorted
// digest multisets anyway.
const hashRounds = 8

// neighbor is one element of a task's neighbourhood multiset: the
// neighbour's digest followed by the big-endian bits of the edge size.
type neighbor [sha256.Size + 8]byte

// appendSortedNeighborhood appends the multiset of (neighbor digest,
// payload size) pairs in sorted order, so sibling enumeration order
// cannot leak into the digest. fromSide selects which endpoint of each
// edge is the neighbor; items is scratch at least len(edgeIdxs) long.
func (w *Workflow) appendSortedNeighborhood(rec []byte, items []neighbor, edgeIdxs []int, digests [][sha256.Size]byte, fromSide bool) []byte {
	items = items[:len(edgeIdxs)]
	for k, idx := range edgeIdxs {
		e := w.edges[idx]
		nb := e.To
		if fromSide {
			nb = e.From
		}
		copy(items[k][:], digests[nb][:])
		binary.BigEndian.PutUint64(items[k][sha256.Size:], math.Float64bits(e.Size))
	}
	slices.SortFunc(items, func(a, b neighbor) int { return bytes.Compare(a[:], b[:]) })
	for k := range items {
		rec = append(rec, items[k][:]...)
	}
	return rec
}

func compareDigests(a, b [sha256.Size]byte) int { return bytes.Compare(a[:], b[:]) }

// appendF64 appends the exact IEEE-754 bit pattern of v.
func appendF64(rec []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(rec, math.Float64bits(v))
}
