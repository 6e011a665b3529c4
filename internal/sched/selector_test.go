package sched

import (
	"math"
	"math/rand"
	"testing"
)

// selector is Algorithm 2's selection rule as a streaming fold over
// candidates in enumeration order: the tests' reference for pickBest
// (TestPickBestMatchesSelector) and the fold of minMinReference.
// Feasible candidates (cost ≤ allowance) compete on less; when none is
// feasible the fallback fold keeps the cheapest under cheaper.
type selector struct {
	allowance float64
	best      candidate
	hasBest   bool
	cheapest  candidate
	hasCheap  bool
}

func newSelector(allowance float64) selector {
	return selector{allowance: allowance}
}

func (sel *selector) add(c candidate) {
	if c.cost <= sel.allowance {
		if !sel.hasBest || less(c, sel.best) {
			sel.best, sel.hasBest = c, true
		}
		return
	}
	if sel.hasBest {
		// The fallback fold's result is only consulted when no feasible
		// candidate exists at all, so it can stop as soon as one does.
		return
	}
	if !sel.hasCheap || cheaper(&c, &sel.cheapest) {
		sel.cheapest, sel.hasCheap = c, true
	}
}

func (sel *selector) pick() candidate {
	if sel.hasBest {
		return sel.best
	}
	return sel.cheapest
}

// TestPickBestMatchesSelector: pickBest (HEFT's selection, and on
// MIN-MIN's cached candidate slices) and the streaming selector above
// implement the same selection rule.
// Random candidate lists, with deliberate duplicate costs/EFTs to
// exercise every tie-breaking branch, must agree on all of feasible
// selection, the all-infeasible fallback, and first-wins ordering,
// wherever pickBest's list is split into its used and fresh parts. A
// NaN metric (a +Inf price times a zero-size edge) is among the values.
func TestPickBestMatchesSelector(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	someVals := []float64{0, 1, 2.5, 7, 7, 13, math.NaN()} // duplicates force ties
	for trial := 0; trial < 5000; trial++ {
		n := 1 + r.Intn(8)
		cands := make([]candidate, n)
		for i := range cands {
			vm := -1
			if r.Float64() < 0.6 {
				vm = r.Intn(4)
			}
			cands[i] = candidate{
				vm:   vm,
				cat:  r.Intn(3),
				eft:  someVals[r.Intn(len(someVals))],
				cost: someVals[r.Intn(len(someVals))],
			}
		}
		allowance := someVals[r.Intn(len(someVals))]
		if r.Float64() < 0.2 {
			allowance = -1 // force the all-infeasible fallback
		}
		if r.Float64() < 0.1 {
			allowance = math.Inf(1) // budget-blind path
		}
		split := r.Intn(n + 1)
		a := pickBest(cands[:split], cands[split:], allowance)
		sel := newSelector(allowance)
		for _, c := range cands {
			sel.add(c)
		}
		b := sel.pick()
		if !sameBits(a, b) {
			t.Fatalf("trial %d: pickBest=%+v selector=%+v (allowance %v, cands %+v)",
				trial, a, b, allowance, cands)
		}
	}
}
