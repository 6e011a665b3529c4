package wfgen

import (
	"fmt"

	"budgetwf/internal/rng"
	"budgetwf/internal/wf"
)

// genCyberShake reproduces the CYBERSHAKE structure described in §V-A:
// "a first set of tasks generating data in parallel, data which will
// be used by a directly connected task (one calculating task per
// generating task). These parallel activities are all linked to two
// different agglomerative tasks", and "half the tasks have huge input
// data".
//
// Concretely, with p = (n-2)/2 pairs:
//
//	ExtractSGT_i  ──►  SeismogramSynthesis_i ──► ZipSeis
//	 (huge input)                             └─► ZipPSA
//
// Profiles (Juve et al. 2013, rounded): ExtractSGT ≈ 110 s with
// multi-GB SGT inputs, SeismogramSynthesis ≈ 80 s consuming ≈150 MB
// from its extractor, Zip* agglomerators a few seconds plus a small
// per-input term. Final archives leave through the datacenter.
func genCyberShake(n int, r *rng.RNG) (*wf.Workflow, error) {
	if n < 6 || n%2 != 0 {
		return nil, fmt.Errorf("wfgen: cybershake needs an even task count ≥ 6, got %d", n)
	}
	pairs := (n - 2) / 2
	w := wf.New("cybershake")
	w.Grow(n, 3*pairs)
	nm := newNamer(n, "SeismogramSynthesis_")

	zipSeis := w.AddTask("ZipSeis", weight(jitter(r, 5+0.1*float64(pairs), 0.2)))
	zipPSA := w.AddTask("ZipPSA", weight(jitter(r, 5+0.1*float64(pairs), 0.2)))

	for i := 0; i < pairs; i++ {
		extract := w.AddTask(nm.name("ExtractSGT_", i), weight(jitter(r, 110, 0.25)))
		// Huge SGT input from the external world: this is the "half the
		// tasks have huge input data" trait.
		w.MustSetExternalIO(extract, jitter(r, 4*gb, 0.25), 0)
		synth := w.AddTask(nm.name("SeismogramSynthesis_", i), weight(jitter(r, 80, 0.25)))
		w.MustAddEdge(extract, synth, jitter(r, 150*mb, 0.2))
		w.MustAddEdge(synth, zipSeis, jitter(r, 1.5*mb, 0.2))
		w.MustAddEdge(synth, zipPSA, jitter(r, 0.5*mb, 0.2))
	}

	// The two archives are the workflow's final products.
	w.MustSetExternalIO(zipSeis, 0, jitter(r, float64(pairs)*1.5*mb, 0.1))
	w.MustSetExternalIO(zipPSA, 0, jitter(r, float64(pairs)*0.5*mb, 0.1))
	return w, nil
}
