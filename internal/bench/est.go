package bench

import (
	"fmt"
	"sort"
	"testing"

	"budgetwf/internal/est"
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
		w, p, s, budget, err := replay(seed, sigma)
		if err != nil {
			return nil, err
		}
		cases = append(cases, Case{
			Name: estCase(sigma),
			Bench: func(b *testing.B) {
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

// estCase names the est-suite case at σ/w̄ = sigma.
func estCase(sigma float64) string {
	return fmt.Sprintf("analytic/montage/n0300/sigma%.2f", sigma)
}
