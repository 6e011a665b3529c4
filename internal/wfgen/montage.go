package wfgen

import (
	"fmt"

	"budgetwf/internal/rng"
	"budgetwf/internal/wf"
)

// genMontage reproduces the MONTAGE structure: "plenty highly
// inter-connected tasks, rendering parallelization less easy. The
// number of instructions of its different tasks is balanced, as is the
// size of the exchanged data" (§V-A). The shape follows the Montage
// mosaic pipeline (Juve et al. 2013):
//
//	mProject_1..P  (parallel re-projections, external image inputs)
//	mDiffFit_1..D  (each consumes two overlapping projections)
//	mConcatFit     (agglomerates all difference fits)
//	mBgModel       (background model, feeds every correction)
//	mBackground_1..P (one per projection, needs mBgModel + mProject_i)
//	mImgtbl → mAdd → mShrink → mJPEG (final pipeline)
//
// With P = ⌊(n-6)/3⌋ projections and D = n − 2P − 6 difference tasks
// the instance has exactly n tasks; D ≥ P−1 always holds for n ≥ 12,
// so the P−1 "ring" overlaps exist and the remaining D−(P−1) diffs
// connect random projection pairs, producing the dense interconnect
// the paper highlights. Task weights are balanced on purpose (all
// within roughly one order of magnitude).
func genMontage(n int, r *rng.RNG) (*wf.Workflow, error) {
	if n < 12 {
		return nil, fmt.Errorf("wfgen: montage needs at least 12 tasks, got %d", n)
	}
	p := (n - 6) / 3
	d := n - 2*p - 6
	if d < p-1 {
		return nil, fmt.Errorf("wfgen: montage sizing bug: n=%d gives P=%d, D=%d", n, p, d)
	}
	w := wf.New("montage")
	w.Grow(n, 3*d+3*p+4)
	nm := newNamer(n, "mBackground_")

	const imgSize = 15 * mb // balanced data sizes throughout

	projects := make([]wf.TaskID, p)
	for i := range projects {
		projects[i] = w.AddTask(nm.name("mProject_", i), weight(jitter(r, 25, 0.2)))
		w.MustSetExternalIO(projects[i], jitter(r, imgSize, 0.15), 0)
	}

	concat := w.AddTask("mConcatFit", weight(jitter(r, 35, 0.2)))
	diffs := make([]wf.TaskID, d)
	for i := range diffs {
		diffs[i] = w.AddTask(nm.name("mDiffFit_", i), weight(jitter(r, 15, 0.2)))
		var a, b int
		if i < p-1 {
			a, b = i, i+1 // ring of adjacent overlaps
		} else {
			a = r.Intn(p)
			b = (a + 1 + r.Intn(p-1)) % p // a random distinct pair
		}
		w.MustAddEdge(projects[a], diffs[i], jitter(r, imgSize, 0.15))
		w.MustAddEdge(projects[b], diffs[i], jitter(r, imgSize, 0.15))
		w.MustAddEdge(diffs[i], concat, jitter(r, 0.5*mb, 0.15))
	}

	bgModel := w.AddTask("mBgModel", weight(jitter(r, 45, 0.2)))
	w.MustAddEdge(concat, bgModel, jitter(r, 1*mb, 0.15))

	imgtbl := w.AddTask("mImgtbl", weight(jitter(r, 20, 0.2)))
	for i := 0; i < p; i++ {
		bg := w.AddTask(nm.name("mBackground_", i), weight(jitter(r, 15, 0.2)))
		w.MustAddEdge(projects[i], bg, jitter(r, imgSize, 0.15))
		w.MustAddEdge(bgModel, bg, jitter(r, 0.5*mb, 0.15))
		w.MustAddEdge(bg, imgtbl, jitter(r, imgSize, 0.15))
	}

	add := w.AddTask("mAdd", weight(jitter(r, 45, 0.2)))
	w.MustAddEdge(imgtbl, add, jitter(r, float64(p)*imgSize*0.2, 0.15))
	shrink := w.AddTask("mShrink", weight(jitter(r, 30, 0.2)))
	w.MustAddEdge(add, shrink, jitter(r, 40*mb, 0.15))
	jpeg := w.AddTask("mJPEG", weight(jitter(r, 10, 0.2)))
	w.MustAddEdge(shrink, jpeg, jitter(r, 10*mb, 0.15))
	w.MustSetExternalIO(jpeg, 0, jitter(r, 5*mb, 0.15))
	return w, nil
}
