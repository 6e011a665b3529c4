package wfgen

import (
	"fmt"

	"budgetwf/internal/rng"
	"budgetwf/internal/wf"
)

// genLigo reproduces the LIGO Inspiral structure described in §V-A:
// "a lot of parallel tasks sharing a link to some agglomerative tasks,
// one agglomerative task per little set; this scheme repeats twice
// since there is a second subdivision after the first agglomeration",
// with "most input data [of] the same (large) size, only one of them
// oversized compared with the others (by a ratio over 100)".
//
// Each independent block holds 2g+2 tasks:
//
//	Inspiral_1..g (parallel, large external inputs) ──► Thinca
//	Thinca ──► TrigBank_1..g (parallel)             ──► Thinca2
//
// Blocks are cloned until the requested task count is reached, which
// matches the paper's observation that larger LIGO instances are "an
// increasing number of independent short workflows". Profiles (Juve et
// al. 2013, rounded): Inspiral ≈ 460 s, second-stage matched filters
// ≈ 230 s, Thinca coincidence steps a few seconds.
func genLigo(n int, r *rng.RNG) (*wf.Workflow, error) {
	const g = 4 // tasks per parallel sub-group
	block := 2*g + 2
	if n < block || n%block != 0 {
		return nil, fmt.Errorf("wfgen: ligo needs a task count that is a multiple of %d, got %d", block, n)
	}
	blocks := n / block
	w := wf.New("ligo")
	w.Grow(n, 3*g*blocks)
	nm := newNamer(n, "TrigBank_")

	// One Inspiral task in the whole workflow receives the oversized
	// input (ratio > 100 versus the common size).
	oversizedBlock := r.Intn(blocks)
	oversizedSlot := r.Intn(g)
	const commonInput = 200 * mb

	for b := 0; b < blocks; b++ {
		thinca := w.AddTask(nm.name("Thinca_", b), weight(jitter(r, 6, 0.2)))
		for i := 0; i < g; i++ {
			insp := w.AddTask(nm.name("Inspiral_", b, i), weight(jitter(r, 460, 0.2)))
			in := commonInput
			if b == oversizedBlock && i == oversizedSlot {
				in = 130 * commonInput // the >100× outlier
			}
			w.MustSetExternalIO(insp, in, 0)
			w.MustAddEdge(insp, thinca, jitter(r, 2*mb, 0.2))
		}
		thinca2 := w.AddTask(nm.name("Thinca2_", b), weight(jitter(r, 6, 0.2)))
		for i := 0; i < g; i++ {
			trig := w.AddTask(nm.name("TrigBank_", b, i), weight(jitter(r, 230, 0.2)))
			w.MustAddEdge(thinca, trig, jitter(r, 2*mb, 0.2))
			w.MustAddEdge(trig, thinca2, jitter(r, 1*mb, 0.2))
		}
		w.MustSetExternalIO(thinca2, 0, jitter(r, 5*mb, 0.2))
	}
	return w, nil
}
