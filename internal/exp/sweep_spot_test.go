package exp

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"budgetwf/internal/market"
	"budgetwf/internal/platform"
	"budgetwf/internal/sched"
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
// FaultPoint and /v1/simulate do; Cost still counts them all.
func TestSweepSpotMakespanCompletedOnly(t *testing.T) {
	t.Parallel()
	var spec market.Spec
	err := json.Unmarshal([]byte(`{
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
	}`), &spec)
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
