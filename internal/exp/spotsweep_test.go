package exp

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"budgetwf/internal/market"
	"budgetwf/internal/platform"
	"budgetwf/internal/sched"
	"budgetwf/internal/sim"
	"budgetwf/internal/stats"
	"budgetwf/internal/wfgen"
)

// spotTestPlatform derives a spot market from the default platform.
func spotTestPlatform(t *testing.T, discount, rate float64) *platform.Platform {
	t.Helper()
	p := platform.Default().WithSpotTwins(discount, rate)
	if err := p.Validate(); err != nil {
		t.Fatalf("spot platform invalid: %v", err)
	}
	return p
}

// TestRunSpotSweepGrid: the sweep covers the full discount×rate grid,
// revocations actually occur at high hazards, and every fraction stays
// a probability.
func TestRunSpotSweepGrid(t *testing.T) {
	t.Parallel()
	sc := SpotScenario{
		Scenario:  Scenario{Type: wfgen.Montage, N: 20, Instances: 2, Reps: 8, Workers: 2, Seed: 3},
		Discounts: []float64{0.6},
		Rates:     []float64{0.05, 2},
	}
	res, err := RunSpotSweep(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	if res.BaselineCost.Mean <= 0 {
		t.Fatalf("baseline cost %v, want > 0", res.BaselineCost.Mean)
	}
	// The baseline scores each execution on weights drawn into the
	// Runner's buffer; it must summarize exactly what one-shot
	// simulations of freshly sampled vectors report.
	var costs, mks []float64
	for i := 0; i < sc.Instances; i++ {
		w, err := res.Scenario.Instance(i)
		if err != nil {
			t.Fatal(err)
		}
		a, err := ComputeAnchors(w, res.Scenario.Platform)
		if err != nil {
			t.Fatal(err)
		}
		s, err := res.Scenario.Alg.Plan(w, res.Scenario.Platform, res.Scenario.BudgetFactor*a.CheapCost)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < sc.Reps; rep++ {
			r, err := sim.Run(w, res.Scenario.Platform, s, sim.SampleWeights(w, spotWeightStream(sc.Seed, i).Split(uint64(rep))))
			if err != nil {
				t.Fatal(err)
			}
			costs, mks = append(costs, r.TotalCost), append(mks, r.Makespan)
		}
	}
	if want := stats.Summarize(costs); res.BaselineCost != want {
		t.Errorf("baseline cost %+v, one-shot reference %+v", res.BaselineCost, want)
	}
	if want := stats.Summarize(mks); res.BaselineMakespan != want {
		t.Errorf("baseline makespan %+v, one-shot reference %+v", res.BaselineMakespan, want)
	}
	for _, pt := range res.Points {
		if pt.SuccessRate < 0 || pt.SuccessRate > 1 || pt.WithinBudget < 0 || pt.WithinBudget > 1 {
			t.Fatalf("point (%g, %g): fractions out of range: %+v", pt.Discount, pt.Rate, pt)
		}
		if pt.SpotVMs <= 0 {
			t.Errorf("point (%g, %g): spot planner booked no spot VMs", pt.Discount, pt.Rate)
		}
	}
	if hi := res.Points[1]; hi.Revocations == 0 {
		t.Errorf("rate 2/h: no revocations across %d executions", sc.Reps*sc.Instances)
	}
}

// TestRunSpotSweepDeterministic: two runs of the same scenario are
// bit-identical (the CRN streams are pure functions of the scenario).
func TestRunSpotSweepDeterministic(t *testing.T) {
	t.Parallel()
	sc := SpotScenario{
		Scenario:  Scenario{Type: wfgen.ForkJoin, N: 12, Instances: 2, Reps: 4, Workers: 3, Seed: 9},
		Discounts: []float64{0.5},
		Rates:     []float64{0.5, 1},
	}
	a, err := RunSpotSweep(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Workers = 1
	b, err := RunSpotSweep(sc)
	if err != nil {
		t.Fatal(err)
	}
	a.Scenario.Workers, b.Scenario.Workers = 0, 0
	// The planner's funcs never DeepEqual: keep only its name.
	a.Scenario.Alg, b.Scenario.Alg = sched.Algorithm{Name: a.Scenario.Alg.Name}, sched.Algorithm{Name: b.Scenario.Alg.Name}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("spot sweep not deterministic across worker counts:\n%+v\nvs\n%+v", a, b)
	}
}

// TestRunSpotSweepRejects: spot platforms and the analytic estimator
// are configuration errors, not silent misbehavior.
func TestRunSpotSweepRejects(t *testing.T) {
	t.Parallel()
	sc := SpotScenario{Scenario: Scenario{Type: wfgen.Chain, N: 5, Platform: spotTestPlatform(t, 0.5, 1)}}
	if _, err := RunSpotSweep(sc); err == nil {
		t.Fatal("spot platform accepted as sweep base")
	}
	sc = SpotScenario{Scenario: Scenario{Type: wfgen.Chain, N: 5, Estimator: EstimatorAnalytic}}
	if _, err := RunSpotSweep(sc); err == nil {
		t.Fatal("analytic estimator accepted for a spot sweep")
	}
	// A NaN grid point is refused by Normalize, before anything is
	// planned, like any other out-of-range one.
	sc = SpotScenario{Scenario: Scenario{Type: wfgen.Chain, N: 5}, Discounts: []float64{0.5, math.NaN()}}
	if _, err := sc.Normalize(); err == nil {
		t.Fatal("NaN spot discount accepted")
	}
	sc = SpotScenario{Scenario: Scenario{Type: wfgen.Chain, N: 5}, Rates: []float64{math.NaN()}}
	if _, err := sc.Normalize(); err == nil {
		t.Fatal("NaN revocation rate accepted")
	}
}

// TestSweepSpotPlatform: a budget sweep over a spot market diverts to
// the online executor — spot counters appear in the points, success
// fractions are tracked, and the whole thing stays deterministic.
func TestSweepSpotPlatform(t *testing.T) {
	t.Parallel()
	p := spotTestPlatform(t, 0.6, 2)
	alg, err := sched.ByName("heftbudg-spot")
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Type: wfgen.Montage, N: 20, Platform: p, Instances: 2, Reps: 6, Workers: 2, Seed: 5}
	res, err := RunSweep(sc, []sched.Algorithm{alg}, 4)
	if err != nil {
		t.Fatal(err)
	}
	spotSeen, revSeen := false, false
	for _, pt := range res.Series[0].Points {
		if pt.SuccessFrac < 0 || pt.SuccessFrac > 1 {
			t.Fatalf("SuccessFrac %v out of range", pt.SuccessFrac)
		}
		if pt.SpotVMs > 0 {
			spotSeen = true
		}
		if pt.Revocations > 0 {
			revSeen = true
		}
	}
	if !spotSeen {
		t.Error("no point booked a spot VM")
	}
	if !revSeen {
		t.Error("no point recorded a revocation at rate 2/h")
	}

	b, err := RunSweep(sc, []sched.Algorithm{alg}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTiming(res), stripTiming(b)) {
		t.Fatal("spot sweep not deterministic")
	}
}

// TestSweepNonSpotSuccessFracOne: on revocation-free platforms every
// execution completes, so SuccessFrac is exactly 1 at every point —
// the degenerate-path guarantee for the new field.
func TestSweepNonSpotSuccessFracOne(t *testing.T) {
	t.Parallel()
	alg, err := sched.ByName(sched.NameHeftBudg)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Type: wfgen.Chain, N: 8, Instances: 1, Reps: 3, Workers: 1, Seed: 1}
	res, err := RunSweep(sc, []sched.Algorithm{alg}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Series[0].Points {
		if pt.SuccessFrac != 1 {
			t.Fatalf("SuccessFrac = %v on a revocation-free platform", pt.SuccessFrac)
		}
		if pt.SpotVMs != 0 || pt.Revocations != 0 || pt.ReworkCost != 0 {
			t.Fatalf("spot counters nonzero on a revocation-free platform: %+v", pt)
		}
	}
}

// TestShardMergeSpotPlatform: the bit-identical sharding contract
// extends to spot sweeps — units computed in shuffled shards merge to
// exactly the monolithic result, spot counters included.
func TestShardMergeSpotPlatform(t *testing.T) {
	t.Parallel()
	p := spotTestPlatform(t, 0.6, 1)
	alg, err := sched.ByName("heftbudg-spot")
	if err != nil {
		t.Fatal(err)
	}
	algs := []sched.Algorithm{alg}
	sc := Scenario{Type: wfgen.ForkJoin, N: 10, Platform: p, Instances: 2, Reps: 5, Workers: 2, Seed: 11}
	const gridK = 3

	mono, err := RunSweepCtx(context.Background(), sc, algs, gridK)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(13))
	sweep := mustSweep(t, sc, algs, gridK)
	var units []Unit
	for _, shard := range randomShards(rnd, sweep.Cells()) {
		part, err := sweep.Run(context.Background(), sc.Workers, shard[0], shard[1])
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, part...)
	}
	rnd.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	merged, err := sweep.Merge(units)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTiming(mono), stripTiming(merged)) {
		t.Fatal("sharded spot sweep diverges from monolithic run")
	}
}

// TestSweepSpotMakespanCompletedOnly: on a revocable market platform a
// budget too tight to pay for the rework cuts some executions short,
// and the horizon of such a partial run is not a makespan —
// Point.Makespan summarises the completed executions only, as
// FaultPoint, SpotPoint and /v1/simulate do; Cost still counts them all.
func TestSweepSpotMakespanCompletedOnly(t *testing.T) {
	t.Parallel()
	spec, err := market.ParseSpecBytes([]byte(`{
	  "providers": [
	    {"name": "alpha", "categories": [
	      {"name": "small", "speed": 1e9, "costPerSec": 6.444e-6, "initCost": 0.0001,
	       "spot": {"discount": 0.6, "revocationsPerHour": 6}},
	      {"name": "large", "speed": 4e9, "costPerSec": 5.155e-5, "initCost": 0.0001}
	    ]},
	    {"name": "beta", "categories": [
	      {"name": "std", "speed": 2e9, "costPerSec": 1.823e-5, "initCost": 0.0001}
	    ]}
	  ],
	  "transfer": [[{}, {"costPerGB": 0.02, "latencySec": 0.5}],
	               [{"costPerGB": 0.02, "latencySec": 0.5}, {}]]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	alg, err := sched.ByName(sched.NameHeftBudg)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Type: wfgen.Montage, N: 20, Platform: p, Instances: 2, Reps: 8, Workers: 2, Seed: 5}
	res, err := RunSweep(sc, []sched.Algorithm{alg}, 4)
	if err != nil {
		t.Fatal(err)
	}
	execs := sc.Instances * sc.Reps
	partial := false
	for _, pt := range res.Series[0].Points {
		completed := int(math.Round(pt.SuccessFrac * float64(execs)))
		if completed < execs {
			partial = true
		}
		if pt.Makespan.N != completed {
			t.Errorf("β=%.2f: makespan summarises %d executions, %d of %d completed", pt.Factor, pt.Makespan.N, completed, execs)
		}
		if pt.Cost.N != execs {
			t.Errorf("β=%.2f: cost summarises %d executions, want all %d", pt.Factor, pt.Cost.N, execs)
		}
	}
	if !partial {
		t.Fatal("every execution completed: the scenario no longer exercises partial runs")
	}
}
