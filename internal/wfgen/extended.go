package wfgen

import (
	"fmt"

	"budgetwf/internal/rng"
	"budgetwf/internal/wf"
)

// Extension families beyond the paper's three benchmarks, taken from
// the same Pegasus suite (Juve et al. 2013). They widen the structural
// coverage of the experiments: EPIGENOMICS is dominated by long
// parallel pipelines, SIPHT by a wide two-level fan with a narrow
// analysis tail.
const (
	Epigenomics Type = "epigenomics"
	Sipht       Type = "sipht"
)

// ExtendedTypes lists the extension families.
func ExtendedTypes() []Type { return []Type{Epigenomics, Sipht} }

// genEpigenomics builds the EPIGENOMICS shape: a fastQSplit fans out
// into parallel 4-stage chains (filterContams → sol2sanger →
// fastq2bfq → map — the map stage dominating the runtime), a mapMerge
// gathers them, and a maqIndex → pileup tail finishes the pipeline.
// With k = ⌈(n−5)/4⌉ chains (the last one shortened so the task count
// is exact), the workflow is almost embarrassingly parallel but each
// lane is strictly sequential — the opposite regime from MONTAGE's
// dense interconnect.
func genEpigenomics(n int, r *rng.RNG) (*wf.Workflow, error) {
	if n < 10 {
		return nil, fmt.Errorf("wfgen: epigenomics needs at least 10 tasks, got %d", n)
	}
	w := wf.New("epigenomics")
	lanes := (n - 4 + 3) / 4
	w.Grow(n, n-2+lanes) // one edge into each lane task, one out of each lane, two in the tail
	nm := newNamer(n, "filterContams_")
	stageRuntimes := [...]float64{15, 10, 8, 240} // filter, sol2sanger, fastq2bfq, map
	stageNames := [...]string{"filterContams_", "sol2sanger_", "fastq2bfq_", "map_"}
	const chunk = 30e6 // bytes passed along a lane

	split := w.AddTask("fastQSplit", weight(jitter(r, 35, 0.2)))
	w.MustSetExternalIO(split, jitter(r, 2*gb, 0.2), 0)
	merge := w.AddTask("mapMerge", weight(jitter(r, 45, 0.2)))
	maqIndex := w.AddTask("maqIndex", weight(jitter(r, 60, 0.2)))
	pileup := w.AddTask("pileup", weight(jitter(r, 70, 0.2)))
	w.MustAddEdge(merge, maqIndex, jitter(r, 300*mb, 0.2))
	w.MustAddEdge(maqIndex, pileup, jitter(r, 250*mb, 0.2))
	w.MustSetExternalIO(pileup, 0, jitter(r, 100*mb, 0.2))

	remaining := n - 4
	lane := 0
	for remaining > 0 {
		depth := 4
		if remaining < depth {
			depth = remaining
		}
		prev := split
		prevSize := jitter(r, chunk, 0.2)
		for s := 0; s < depth; s++ {
			id := w.AddTask(nm.name(stageNames[s], lane), weight(jitter(r, stageRuntimes[s], 0.25)))
			w.MustAddEdge(prev, id, prevSize)
			prev = id
			prevSize = jitter(r, chunk, 0.2)
		}
		w.MustAddEdge(prev, merge, jitter(r, chunk/2, 0.2))
		remaining -= depth
		lane++
	}
	return w, nil
}

// genSipht builds the SIPHT shape: a wide fan of cheap Patser jobs
// concatenated into one file, an sRNA prediction hub, a second fan of
// medium BLAST-style analyses, and a final annotation — two levels of
// massive parallelism around three serial bottlenecks.
func genSipht(n int, r *rng.RNG) (*wf.Workflow, error) {
	if n < 6 {
		return nil, fmt.Errorf("wfgen: sipht needs at least 6 tasks, got %d", n)
	}
	w := wf.New("sipht")
	rest := n - 3 // patser fan + blast fan
	patsers := rest / 2
	blasts := rest - patsers
	w.Grow(n, patsers+1+2*blasts)
	nm := newNamer(n, "patser_")

	concat := w.AddTask("patserConcat", weight(jitter(r, 5, 0.2)))
	for i := 0; i < patsers; i++ {
		id := w.AddTask(nm.name("patser_", i), weight(jitter(r, 2, 0.3)))
		w.MustSetExternalIO(id, jitter(r, 3*mb, 0.3), 0)
		w.MustAddEdge(id, concat, jitter(r, 0.5*mb, 0.3))
	}
	srna := w.AddTask("srna", weight(jitter(r, 150, 0.2)))
	w.MustSetExternalIO(srna, jitter(r, 40*mb, 0.2), 0)
	w.MustAddEdge(concat, srna, jitter(r, 2*mb, 0.2))
	annotate := w.AddTask("annotate", weight(jitter(r, 25, 0.2)))
	for i := 0; i < blasts; i++ {
		id := w.AddTask(nm.name("blast_", i), weight(jitter(r, 45, 0.3)))
		w.MustAddEdge(srna, id, jitter(r, 5*mb, 0.3))
		w.MustAddEdge(id, annotate, jitter(r, 1*mb, 0.3))
	}
	w.MustSetExternalIO(annotate, 0, jitter(r, 10*mb, 0.2))
	return w, nil
}
