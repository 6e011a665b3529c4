package wf_test

import (
	"testing"

	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// hashFamilies are the generator families the equivalence is checked
// on: the paper's three, the two extended Pegasus ones, and the
// generic shapes (a chain and a bag of tasks are the degenerate DAGs
// at size).
var hashFamilies = []wfgen.Type{
	wfgen.CyberShake, wfgen.Ligo, wfgen.Montage, wfgen.Epigenomics, wfgen.Sipht,
	wfgen.Random, wfgen.Chain, wfgen.ForkJoin, wfgen.BagOfTasks,
}

func TestCanonicalHashMatchesReferenceOnFamilies(t *testing.T) {
	for _, typ := range hashFamilies {
		for _, n := range []int{12, 20, 50, 90, 300} {
			if typ == wfgen.Ligo {
				n -= n % 10 // LIGO sizes are multiples of 10
			}
			for seed := uint64(1); seed <= 3; seed++ {
				w, err := wfgen.Generate(typ, n, seed)
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", typ, n, seed, err)
				}
				for _, v := range []*wf.Workflow{w, w.WithSigmaRatio(0.5)} {
					if got, want := v.CanonicalHash(), wf.CanonicalHashReference(v); got != want {
						t.Errorf("%s n=%d seed=%d: CanonicalHash = %s, reference = %s", typ, n, seed, got, want)
					}
				}
			}
		}
	}
}

// TestCanonicalHashAllocations pins the point of the arena rewrite:
// the allocation count does not grow with the workflow (the reference
// makes 10 685 at this size).
func TestCanonicalHashAllocations(t *testing.T) {
	w := wfgen.MustGenerate(wfgen.Montage, 90, 1).WithSigmaRatio(0.5)
	if allocs := testing.AllocsPerRun(20, func() { _ = w.CanonicalHash() }); allocs > 16 {
		t.Errorf("CanonicalHash allocates %v objects per call at n=90, want ≤ 16", allocs)
	}
}
