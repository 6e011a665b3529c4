package bench

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"budgetwf/internal/est"
	"budgetwf/internal/exp"
	"budgetwf/internal/platform"
	"budgetwf/internal/sched"
	"budgetwf/internal/wfgen"
)

// Est builds the analytic-estimator suite, the hot-path counterpart of
// Sim: one op is one est.Compute of the same fixed HEFTBUDG schedule
// (Montage, n=300) plus the simReps quantile reads a sweep cell
// performs — so the ratio of the matching sim and est cases is exactly
// the per-cell speedup of replacing Monte Carlo replication with
// moment propagation on the sweep hot path.
func Est(seed uint64) ([]Case, error) {
	var cases []Case
	for _, sigma := range simSigmas {
		w, err := wfgen.Generate(wfgen.Montage, 300, seed)
		if err != nil {
			return nil, err
		}
		w = w.WithSigmaRatio(sigma)
		p := platform.Default()
		anchors, err := exp.ComputeAnchors(w, p)
		if err != nil {
			return nil, err
		}
		budget := (anchors.CheapCost + anchors.High) / 2
		s, err := sched.HeftBudg(w, p, budget)
		if err != nil {
			return nil, err
		}
		cases = append(cases, Case{
			Name: fmt.Sprintf("analytic/montage/n0300/sigma%.2f", sigma),
			Bench: func(b *testing.B) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e, err := est.Compute(w, p, s)
					if err != nil {
						b.Fatal(err)
					}
					for rep := 0; rep < simReps; rep++ {
						q := (float64(rep) + 0.5) / float64(simReps)
						_ = e.MakespanQuantile(q)
						if c := e.CostQuantile(q); c > budget {
							_ = e.OverrunProb(budget)
						}
					}
				}
			},
		})
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].Name < cases[j].Name })
	return cases, nil
}

// maxEstAllocs caps an est-suite op: one est.Compute and its quantile
// reads allocate a fixed handful of arrays (4 at every σ on the
// committed baseline), never per task or per read.
const maxEstAllocs = 8

// GateEst checks, within one est-suite run, that every analytic case
// stays within maxEstAllocs allocations per op.
func GateEst(f *File) (report []string, err error) {
	byCase := make(map[string]Result, len(f.Results))
	for _, r := range f.Results {
		byCase[r.Case] = r
	}
	var broken []string
	for _, sigma := range simSigmas {
		name := fmt.Sprintf("analytic/montage/n0300/sigma%.2f", sigma)
		r := byCase[name]
		if r.Case == "" {
			return report, fmt.Errorf("bench: est gate: %s case missing", name)
		}
		report = append(report, fmt.Sprintf("%s: allocs_per_op %d (limit %d)", name, r.AllocsPerOp, maxEstAllocs))
		if r.AllocsPerOp > maxEstAllocs {
			broken = append(broken, fmt.Sprintf("%s allocates %d objects per op, more than %d", name, r.AllocsPerOp, maxEstAllocs))
		}
	}
	if len(broken) > 0 {
		return report, fmt.Errorf("bench: est gate: %s", strings.Join(broken, "; "))
	}
	return report, nil
}
