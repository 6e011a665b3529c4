package bench

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"budgetwf/internal/exp"
	"budgetwf/internal/fault"
	"budgetwf/internal/online"
	"budgetwf/internal/platform"
	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/sim"
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
		s, err := sched.HeftBudg(w, p, (anchors.CheapCost+anchors.High)/2)
		if err != nil {
			return nil, err
		}
		batch := func(name string, one func(r *sim.Runner, rand *rng.RNG) error) {
			cases = append(cases, Case{
				Name: fmt.Sprintf("%s%d/montage/n0300/sigma%.2f", name, simReps, sigma),
				Bench: func(b *testing.B) {
					runner, err := sim.NewRunner(w, p, s)
					if err != nil {
						b.Fatal(err)
					}
					stream := rng.New(seed).Split(uint64(sigma * 100))
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
		budget := (anchors.CheapCost + anchors.High) / 2
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

// What GateSim holds a sim-suite run to. A batch draws one split RNG
// stream per replication and nothing else (26 allocations at most), so
// the ceiling catches an evaluator that allocates even once per call
// (≥ 50), deterministically. The time ratio is between two cases of the
// same run on the same weights, which makes it machine-independent
// enough to gate: scoring measures about 1/20 to 1/10 of the event
// engine here (the rest is sampling); at 1/2 it would no longer be
// worth a second code path. A one-shot online execution builds the
// engine and its controller and collects a Report — a few dozen
// allocations — and replays the schedule on the same event engine, so
// a batch of them stays within twice the reused engine's time.
const (
	maxSimBatchAllocs   = 32
	maxScoreRunTime     = 0.5
	maxOnlineRunTime    = 2
	maxOnlineExecAllocs = 400
)

// GateSim checks, within one sim-suite run, that no replication batch
// allocates per execution, that scoring a batch takes at most
// maxScoreRunTime of simulating it in full at equal σ, and that a batch
// of one-shot online executions takes at most maxOnlineRunTime of the
// simulated one and maxOnlineExecAllocs allocations per execution.
func GateSim(f *File) (report []string, err error) {
	byCase := make(map[string]Result, len(f.Results))
	for _, r := range f.Results {
		byCase[r.Case] = r
	}
	name := func(kind string, sigma float64) string {
		return fmt.Sprintf("%s%d/montage/n0300/sigma%.2f", kind, simReps, sigma)
	}
	var broken []string
	for _, sigma := range simSigmas {
		run, score := byCase[name("mc", sigma)], byCase[name("score", sigma)]
		if run.Case == "" || score.Case == "" {
			return report, fmt.Errorf("bench: sim gate: %s or %s case missing", name("mc", sigma), name("score", sigma))
		}
		report = append(report, fmt.Sprintf("%s / %s: ns_per_op %.0f/%.0f = %.3f (limit %.2f), allocs_per_op %d and %d (limit %d)",
			score.Case, run.Case, score.NsPerOp, run.NsPerOp, score.NsPerOp/run.NsPerOp, maxScoreRunTime,
			score.AllocsPerOp, run.AllocsPerOp, maxSimBatchAllocs))
		for _, r := range []Result{run, score} {
			if r.AllocsPerOp > maxSimBatchAllocs {
				broken = append(broken, fmt.Sprintf("%s allocates %d objects per batch of %d, more than %d",
					r.Case, r.AllocsPerOp, simReps, maxSimBatchAllocs))
			}
		}
		if score.NsPerOp > maxScoreRunTime*run.NsPerOp {
			broken = append(broken, fmt.Sprintf("%s takes %.0f ns per op, more than %.0f%% of %s's %.0f",
				score.Case, score.NsPerOp, 100*maxScoreRunTime, run.Case, run.NsPerOp))
		}
	}
	run, onl := byCase[name("mc", onlineSigma)], byCase[name("online", onlineSigma)]
	if onl.Case == "" {
		return report, fmt.Errorf("bench: sim gate: %s case missing", name("online", onlineSigma))
	}
	report = append(report, fmt.Sprintf("%s / %s: ns_per_op %.0f/%.0f = %.3f (limit %d), %d allocations per execution (limit %d)",
		onl.Case, run.Case, onl.NsPerOp, run.NsPerOp, onl.NsPerOp/run.NsPerOp, maxOnlineRunTime, onl.AllocsPerOp/simReps, maxOnlineExecAllocs))
	if onl.NsPerOp > maxOnlineRunTime*run.NsPerOp {
		broken = append(broken, fmt.Sprintf("%s takes %.0f ns per op, more than %d× %s's %.0f",
			onl.Case, onl.NsPerOp, maxOnlineRunTime, run.Case, run.NsPerOp))
	}
	if onl.AllocsPerOp > maxOnlineExecAllocs*simReps {
		broken = append(broken, fmt.Sprintf("%s allocates %d objects per batch of %d, more than %d per execution",
			onl.Case, onl.AllocsPerOp, simReps, maxOnlineExecAllocs))
	}
	if len(broken) > 0 {
		return report, fmt.Errorf("bench: sim gate: %s", strings.Join(broken, "; "))
	}
	return report, nil
}
