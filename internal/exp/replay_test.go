package exp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"budgetwf/internal/est"
	"budgetwf/internal/fault"
	"budgetwf/internal/market"
	"budgetwf/internal/online"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/reqerr"
	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/sim"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// plannedCase generates one workflow of the family and plans it with
// alg on p under factor × CheapCost (anchored on the on-demand side of
// p, so a market platform and its baseline compete for the same
// dollars).
func plannedCase(t testing.TB, typ wfgen.Type, n int, sigma float64, alg sched.Name, p *platform.Platform, factor float64, seed uint64) (*wf.Workflow, *plan.Schedule, float64) {
	t.Helper()
	w, err := wfgen.Generate(typ, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithSigmaRatio(sigma)
	a, err := ComputeAnchors(w, p.OnDemandOnly())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.PlanContext(context.Background(), alg, w, p, factor*a.CheapCost)
	if err != nil {
		t.Fatal(err)
	}
	return w, s, factor * a.CheapCost
}

// bits renders a batch with every float as its IEEE-754 bit pattern, so
// two batches compare equal exactly when they are math.Float64bits-equal.
func bits(b Batch) string {
	var sb strings.Builder
	for _, fs := range [][]float64{b.Makespans, b.Costs, {b.WastedSeconds, b.SpotCost, b.ReworkCost}} {
		for _, f := range fs {
			fmt.Fprintf(&sb, "%x ", math.Float64bits(f))
		}
		sb.WriteString("| ")
	}
	fmt.Fprint(&sb, b.Reps, b.Completed, b.InBudget, b.Crashes, b.BootFailures, b.TaskFailures,
		b.Recoveries, b.Vetoed, b.SpotVMs, b.Revocations)
	return sb.String()
}

// oneShot is the oracle: the batch reps calls of a public
// single-execution entry point add up to, replication i drawing its
// weights from stream.Split(i) exactly as Replay promises.
func oneShot(t *testing.T, w *wf.Workflow, budget float64, reps int, stream *rng.RNG, exec func(i int, weights []float64) *online.Report) Batch {
	t.Helper()
	var b Batch
	for i := 0; i < reps; i++ {
		r := exec(i, sim.SampleWeights(w, stream.Split(uint64(i))))
		b.observe(r.Makespan, r.TotalCost, r.Completed, budget)
		b.Add(Batch{Crashes: r.Crashes, BootFailures: r.BootFailures, TaskFailures: r.TaskFailures,
			Recoveries: r.Recoveries, Vetoed: r.RecoveriesVetoed, WastedSeconds: r.WastedSeconds,
			SpotVMs: r.SpotVMs, Revocations: r.Revocations, SpotCost: r.SpotCost, ReworkCost: r.SpotReworkCost})
	}
	return b
}

// TestReplayMatchesOneShot: whatever back end Run picks, the batch is
// what one call per replication of the public single-execution API
// gives, bit for bit — sim.Run for the scored loop, online.ExecuteFaulty
// / online.Execute under each fault-seed rule, est.Compute's quantiles
// at the midpoints for the analytic grid.
func TestReplayMatchesOneShot(t *testing.T) {
	t.Parallel()
	const reps, seed = 6, 11
	ctx := context.Background()
	def := platform.Default()
	partial := false // some execution was cut short: Makespans ≠ Costs in length
	for _, fam := range []wfgen.Type{wfgen.Montage, wfgen.Ligo, wfgen.CyberShake} {
		for _, alg := range []sched.Name{sched.NameHeftBudg, sched.NameHeftBudgPlus} {
			w, s, budget := plannedCase(t, fam, 20, 0.5, alg, def, 1.3, 2)
			check := func(name string, r Replay, want Batch) {
				t.Helper()
				r.Workflow, r.Budget, r.Reps, r.Weights = w, budget, reps, rng.New(seed)
				got, err := r.Run(ctx)
				if err != nil {
					t.Fatalf("%s %s %s: %v", fam, alg, name, err)
				}
				if err := got.check(reps); err != nil {
					t.Errorf("%s %s %s: inconsistent batch: %v", fam, alg, name, err)
				}
				partial = partial || got.Completed < reps
				if bits(got) != bits(want) {
					t.Errorf("%s %s %s:\nbatch    %s\none-shot %s", fam, alg, name, bits(got), bits(want))
				}
			}
			must := func(r *online.Report, err error) *online.Report {
				t.Helper()
				if err != nil {
					t.Fatalf("%s %s: %v", fam, alg, err)
				}
				return r
			}

			check("scored", Replay{Platform: def, Schedule: s},
				oneShot(t, w, budget, reps, rng.New(seed), func(_ int, weights []float64) *online.Report {
					r, err := sim.Run(w, def, s, weights)
					if err != nil {
						t.Fatal(err)
					}
					return &online.Report{Makespan: r.Makespan, TotalCost: r.TotalCost, Completed: true}
				}))

			e, err := est.Compute(w, def, s)
			if err != nil {
				t.Fatal(err)
			}
			var grid Batch
			for i := 0; i < reps; i++ {
				q := (float64(i) + 0.5) / reps
				grid.observe(e.MakespanQuantile(q), e.CostQuantile(q), true, budget)
			}
			check("analytic", Replay{Platform: def, Schedule: s, Estimator: EstimatorAnalytic}, grid)

			// A fault template under each seed rule; λ high enough that the
			// tight budget cuts some executions short.
			tmpl := &fault.Spec{CrashRatePerHour: []float64{8}, BootFailProb: 0.05, Recovery: "resubmit-fastest", Seed: 9}
			faulty := func(seedOf func(i int) uint64) Batch {
				return oneShot(t, w, budget, reps, rng.New(seed), func(i int, weights []float64) *online.Report {
					spec := *tmpl
					spec.Seed = seedOf(i)
					return must(online.ExecuteFaulty(w, def, s, weights, &spec, budget, nil))
				})
			}
			check("faults, seed + rep", Replay{Platform: def, Schedule: s, Faults: tmpl, FaultSeed: 1234},
				faulty(func(i int) uint64 { return tmpl.Seed + uint64(i) }))
			seeds := rng.New(5).Split(77)
			check("faults, split seeds", Replay{Platform: def, Schedule: s, Faults: tmpl, FaultSeeds: rng.New(5).Split(77)},
				faulty(func(i int) uint64 { return seeds.Split(uint64(i)).Uint64() }))

			// Spot platforms: revocable (the platform's hazards are the
			// fault process, seeded FaultSeed + rep) and zero-hazard
			// (nothing to inject, bookings still counted).
			for _, rate := range []float64{6, 0} {
				twins := def.WithSpotTwins(0.6, rate)
				w, s, budget := plannedCase(t, fam, 20, 0.5, alg+"-spot", twins, 1.3, 2)
				check(fmt.Sprintf("spot λ=%g", rate), Replay{Platform: twins, Schedule: s, FaultSeed: 3},
					oneShot(t, w, budget, reps, rng.New(seed), func(i int, weights []float64) *online.Report {
						if spec := market.MergeRevocations(nil, twins, 3+uint64(i)); spec != nil {
							return must(online.ExecuteFaulty(w, twins, s, weights, spec, budget, nil))
						}
						return must(online.Execute(w, twins, s, weights, online.Policy{Budget: budget}))
					}))
			}
		}
	}
	if !partial {
		t.Error("every execution completed: the cases no longer exercise completed-only makespans")
	}
}

// TestReplayAllocsIndependentOfReps: a scored batch allocates its Runner
// and two pre-sized slices, and nothing per replication — what keeps a
// sweep's allocation count a function of its cells, not its executions.
func TestReplayAllocsIndependentOfReps(t *testing.T) {
	p := platform.Default()
	w, s, budget := plannedCase(t, wfgen.Montage, 30, 0.5, sched.NameHeftBudg, p, 1.5, 1)
	allocs := func(reps int) float64 {
		stream := rng.New(1)
		return testing.AllocsPerRun(10, func() {
			if _, err := (Replay{Workflow: w, Platform: p, Schedule: s, Budget: budget, Reps: reps, Weights: stream}).Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(5), allocs(500); few != many {
		t.Errorf("a scored batch allocates %v objects for 5 replications and %v for 500", few, many)
	}
}

// TestReplayRefuses: Run refuses, with the request-validation error of
// the field at fault, what none of its back ends could execute.
func TestReplayRefuses(t *testing.T) {
	p := platform.Default()
	w, s, budget := plannedCase(t, wfgen.Montage, 20, 0.5, sched.NameHeftBudg, p, 1.5, 1)
	contended := *p
	contended.DCBandwidth = 1e9
	ok := Replay{Workflow: w, Platform: p, Schedule: s, Budget: budget, Reps: 3, Weights: rng.New(1)}
	for name, tc := range map[string]struct {
		mutate func(*Replay)
		field  string
	}{
		"zero reps":          {func(r *Replay) { r.Reps = 0 }, "replications"},
		"negative reps":      {func(r *Replay) { r.Reps = -3 }, "replications"},
		"unknown estimator":  {func(r *Replay) { r.Estimator = "montecarlo" }, "estimator"},
		"analytic faults":    {func(r *Replay) { r.Estimator, r.Faults = EstimatorAnalytic, &fault.Spec{} }, "estimator"},
		"analytic market":    {func(r *Replay) { r.Estimator, r.Platform = EstimatorAnalytic, p.WithSpotTwins(0.5, 1) }, "estimator"},
		"bad template":       {func(r *Replay) { r.Faults = &fault.Spec{BootFailProb: 1.5} }, "faults.bootFailProb"},
		"faults, contention": {func(r *Replay) { r.Platform, r.Faults = &contended, &fault.Spec{} }, "faults"},
	} {
		r := ok
		tc.mutate(&r)
		var invalid *reqerr.Error
		if b, err := r.Run(context.Background()); !errors.As(err, &invalid) || invalid.Field != tc.field || b.Reps != 0 {
			t.Errorf("%s: batch %+v, error %v; want a %s error", name, b, err, tc.field)
		}
	}
	// Contention without injection is the scored loop's fallback to Run,
	// not a refusal; a cancelled context is returned bare.
	r := ok
	r.Platform = &contended
	if b, err := r.Run(context.Background()); err != nil || b.Completed != 3 {
		t.Errorf("contention, no faults: %+v, %v", b, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ok.Run(ctx); err != context.Canceled {
		t.Errorf("cancelled run: %v", err)
	}
}

// FuzzReplayBackendsAgree is the differential check at the seam where
// the three ways of pricing a schedule meet (ROADMAP 5a): a generated
// workflow is planned, and the same schedule is replayed scored, through
// the online executor — on zero-hazard, zero-discount spot twins of the
// same categories, which Run routes there and which cost and behave
// exactly like their on-demand siblings — and, at σ = 0, read off the
// analytic grid. Scored and executed must agree bit for bit on every
// makespan and cost; the grid propagates moments in its own operand
// order and is held to the 1e-9 relative error est's
// TestExactWhenDeterministic holds it to (a 1-ulp difference exists:
// seed#3).
func FuzzReplayBackendsAgree(f *testing.F) {
	f.Add(uint8(0), uint8(20), uint8(0), 1.5, 0.5, uint64(1))
	f.Add(uint8(1), uint8(26), uint8(3), 1.0, 0.0, uint64(7)) // LIGO comes in multiples of 10: n = 30
	f.Add(uint8(2), uint8(12), uint8(5), 3.0, 1.0, uint64(42))
	f.Add(uint8(4), uint8(25), uint8(8), 0.7, 0.0, uint64(1<<40))
	families := append(wfgen.AllPaperTypes(), wfgen.ExtendedTypes()...)
	planners := sched.All()
	f.Fuzz(func(t *testing.T, family, n, planner uint8, factor, sigma float64, seed uint64) {
		if !(factor >= 0.1 && factor <= 10) || !(sigma >= 0 && sigma <= 1.5) {
			t.Skip("budget factor or σ/w̄ outside the modelled range")
		}
		typ, alg := families[int(family)%len(families)], planners[int(planner)%len(planners)].Name
		w, err := wfgen.Generate(typ, 4+int(n)%60, seed)
		if err != nil {
			t.Skip(err) // the family does not come in this size
		}
		w = w.WithSigmaRatio(sigma)
		p := platform.Default()
		a, err := ComputeAnchors(w, p)
		if err != nil {
			t.Fatal(err)
		}
		budget := factor * a.CheapCost
		s, err := sched.PlanContext(context.Background(), alg, w, p, budget)
		if err != nil {
			t.Fatal(err)
		}
		// Category k's twin sits right after it: equal cost, stable sort.
		twins, onTwins := p.WithSpotTwins(0, 0), s.Clone()
		for vm, k := range onTwins.VMCats {
			onTwins.VMCats[vm] = 2*k + 1
		}

		const reps = 5
		replay := Replay{Workflow: w, Platform: p, Schedule: s, Budget: budget, Reps: reps, Weights: rng.New(seed)}
		// Each back end replays twice and must repeat itself bit for bit:
		// the check that catches state leaking from one execution into the
		// next through a reused engine.
		twice := func() Batch {
			first, err := replay.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			again, err := replay.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if bits(first) != bits(again) {
				t.Fatalf("%s n=%d %s β=%g σ=%g seed %d: two replays differ:\n%s\n%s", typ, w.NumTasks(), alg, factor, sigma, seed, bits(first), bits(again))
			}
			return first
		}
		scored := twice()
		replay.Platform, replay.Schedule = twins, onTwins
		executed := twice()
		if executed.SpotVMs != reps*s.NumVMs() {
			t.Fatalf("the twin schedule booked %d spot VMs over %d executions of %d VMs: not routed through online", executed.SpotVMs, reps, s.NumVMs())
		}
		executed.SpotVMs, executed.SpotCost = 0, 0
		if bits(scored) != bits(executed) {
			t.Errorf("%s n=%d %s β=%g σ=%g seed %d:\nscored %s\nonline %s", typ, w.NumTasks(), alg, factor, sigma, seed, bits(scored), bits(executed))
		}
		if sigma == 0 {
			replay.Platform, replay.Schedule, replay.Estimator = p, s, EstimatorAnalytic
			grid, err := replay.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for i := range scored.Costs {
				if math.Abs(grid.Makespans[i]-scored.Makespans[i]) > 1e-9*scored.Makespans[i] || math.Abs(grid.Costs[i]-scored.Costs[i]) > 1e-9*scored.Costs[i] {
					t.Fatalf("%s n=%d %s β=%g seed %d, σ=0, replication %d: scored (%v, %v), analytic (%v, %v)", typ, w.NumTasks(), alg, factor, seed,
						i, scored.Makespans[i], scored.Costs[i], grid.Makespans[i], grid.Costs[i])
				}
			}
		}
	})
}
