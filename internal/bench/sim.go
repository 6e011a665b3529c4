package bench

import (
	"fmt"
	"sort"
	"testing"

	"budgetwf/internal/exp"
	"budgetwf/internal/fault"
	"budgetwf/internal/online"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/sim"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// simReps is the replication batch size per op — the paper's 25
// stochastic executions per (instance, budget) cell, so one op here
// costs exactly what one sweep cell's simulation phase costs.
const simReps = 25

var simSigmas = []float64{0, 0.5, 1.0}

// onlineSigma is the σ/w̄ of the online-executor cases.
const onlineSigma = 0.5

// Sim builds the Monte Carlo suite: batches of simReps stochastic
// executions of a fixed HEFTBUDG schedule (Montage, n=300) at
// σ/w̄ ∈ {0, 0.5, 1.0}, replayed through a sim.Runner. The mc cases
// run the event engine (Runner.RunStochastic, a full Result per
// execution); the score cases draw the same weights and read makespan
// and cost through Runner.Score, exactly like the experiment sweeps
// do. σ=0 isolates the evaluator (sampling degenerates to the mean);
// larger σ adds the truncated-Gaussian sampling cost and shifts the
// realized timelines.
func Sim(seed uint64) ([]Case, error) {
	var cases []Case
	for _, sigma := range simSigmas {
		w, p, s, budget, err := replay(seed, sigma)
		if err != nil {
			return nil, err
		}
		batch := func(name string, one func(r *sim.Runner, rand *rng.RNG) error) {
			cases = append(cases, Case{
				Name: simCase(name, sigma),
				Bench: func(b *testing.B) {
					runner, err := sim.NewRunner(w, p, s)
					if err != nil {
						b.Fatal(err)
					}
					stream := rng.New(seed).Split(uint64(sigma * 100))
					// Grow the runner's buffers before the clock starts, so a
					// one-batch run counts what a long one does per batch.
					if err := one(runner, stream.Split(simReps)); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for rep := 0; rep < simReps; rep++ {
							if err := one(runner, stream.Split(uint64(rep))); err != nil {
								b.Fatal(err)
							}
						}
					}
				},
			})
		}
		batch("mc", func(r *sim.Runner, rand *rng.RNG) error {
			_, err := r.RunStochastic(rand)
			return err
		})
		batch("score", func(r *sim.Runner, rand *rng.RNG) error {
			_, _, err := r.Score(r.Sample(rand))
			return err
		})
		if sigma != onlineSigma {
			continue
		}
		batch("online", func(_ *sim.Runner, rand *rng.RNG) error {
			_, err := online.ExecuteStochastic(w, p, s, rand, online.DefaultPolicy(budget))
			return err
		})
		rep := uint64(0)
		batch("faulty", func(_ *sim.Runner, rand *rng.RNG) error {
			rep++
			spec := &fault.Spec{CrashRatePerHour: []float64{0.1}, Seed: rep}
			_, err := online.ExecuteFaulty(w, p, s, sim.SampleWeights(w, rand), spec, budget, nil)
			return err
		})
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].Name < cases[j].Name })
	return cases, nil
}

// simCase names the sim-suite batch of kind at σ/w̄ = sigma.
func simCase(kind string, sigma float64) string {
	return fmt.Sprintf("%s%d/montage/n0300/sigma%.2f", kind, simReps, sigma)
}

// replay plans the schedule the sim and est suites replay: HEFTBUDG on
// Montage n = 300 at σ/w̄ = sigma, at the mid-range budget.
func replay(seed uint64, sigma float64) (*wf.Workflow, *platform.Platform, *plan.Schedule, float64, error) {
	w, err := wfgen.Generate(wfgen.Montage, 300, seed)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	w, p := w.WithSigmaRatio(sigma), platform.Default()
	anchors, err := exp.ComputeAnchors(w, p)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	budget := (anchors.CheapCost + anchors.High) / 2
	s, err := sched.HeftBudg(w, p, budget)
	return w, p, s, budget, err
}
