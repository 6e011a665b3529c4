package exp

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"budgetwf/internal/fault"
	"budgetwf/internal/sched"
	"budgetwf/internal/stats"
	"budgetwf/internal/wfgen"
)

// stripTiming zeroes the one inherently non-deterministic observable
// (plan wall-time) and the local-parallelism knob so two runs of the
// same scenario can be compared bit-for-bit.
func stripTiming(r *SweepResult) *SweepResult {
	r.Scenario.Workers = 0
	for si := range r.Series {
		for pi := range r.Series[si].Points {
			r.Series[si].Points[pi].PlanTime = stats.Summary{}
		}
	}
	return r
}

func pickAlgs(rnd *rand.Rand) []sched.Algorithm {
	pool := []sched.Name{sched.NameHeft, sched.NameMinMin, sched.NameHeftBudg, sched.NameMinMinBudg}
	rnd.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	k := 1 + rnd.Intn(3)
	algs := make([]sched.Algorithm, 0, k)
	for _, n := range pool[:k] {
		a, err := sched.ByName(n)
		if err != nil {
			panic(err)
		}
		algs = append(algs, a)
	}
	return algs
}

func randomScenario(rnd *rand.Rand) Scenario {
	families := []wfgen.Type{wfgen.Chain, wfgen.ForkJoin, wfgen.BagOfTasks, wfgen.Random}
	return Scenario{
		Type:       families[rnd.Intn(len(families))],
		N:          4 + rnd.Intn(9),
		SigmaRatio: 0.1 + rnd.Float64(),
		Instances:  1 + rnd.Intn(2),
		Reps:       1 + rnd.Intn(5),
		Workers:    1 + rnd.Intn(4),
		Seed:       rnd.Uint64() % 1000,
	}
}

// mustSweep resolves a sweep the test knows to be valid.
func mustSweep(t *testing.T, sc Scenario, algs []sched.Algorithm, gridK int) *Sweep {
	t.Helper()
	s, err := NewSweep(sc, algs, gridK)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomShards cuts [0, units) into random contiguous ranges.
func randomShards(rnd *rand.Rand, units int) [][2]int {
	var shards [][2]int
	for start := 0; start < units; {
		end := start + 1 + rnd.Intn(units-start)
		shards = append(shards, [2]int{start, end})
		start = end
	}
	return shards
}

// TestShardMergeMatchesMonolithic is the sharding property test: over
// ≥100 random (scenario, unit-range partition, worker-count) cases,
// decomposing a sweep into units, evaluating the shards independently
// (in shuffled order, as a cluster of workers would) and merging the
// units must reproduce the single-process RunSweepCtx result
// bit-for-bit.
func TestShardMergeMatchesMonolithic(t *testing.T) {
	t.Parallel()
	rnd := rand.New(rand.NewSource(7))
	cases := 100
	if testing.Short() {
		cases = 25
	}
	for i := 0; i < cases; i++ {
		sc := randomScenario(rnd)
		algs := pickAlgs(rnd)
		gridK := 1 + rnd.Intn(3)

		want, err := RunSweepCtx(context.Background(), sc, algs, gridK)
		if err != nil {
			t.Fatalf("case %d: monolithic: %v", i, err)
		}

		sweep := mustSweep(t, sc, algs, gridK)
		shards := randomShards(rnd, sweep.Cells())
		rnd.Shuffle(len(shards), func(a, b int) { shards[a], shards[b] = shards[b], shards[a] })
		var units []Unit
		for _, sh := range shards {
			// Each shard runs with its own local parallelism, like a
			// heterogeneous worker fleet.
			got, err := sweep.Run(context.Background(), 1+rnd.Intn(4), sh[0], sh[1])
			if err != nil {
				t.Fatalf("case %d: shard [%d,%d): %v", i, sh[0], sh[1], err)
			}
			units = append(units, got...)
		}
		merged, err := sweep.Merge(units)
		if err != nil {
			t.Fatalf("case %d: merge: %v", i, err)
		}
		if !reflect.DeepEqual(stripTiming(merged), stripTiming(want)) {
			t.Fatalf("case %d (%s n=%d algs=%d gridK=%d reps=%d): merged result differs from monolithic",
				i, sc.Type, sc.N, len(algs), gridK, sc.Reps)
		}
	}
}

// TestFaultShardMergeMatchesMonolithic is the same property for the
// fault sweep: unit decomposition and merge must be bit-identical to
// RunFaultSweepCtx, including the common-random-numbers pairing across
// rates.
func TestFaultShardMergeMatchesMonolithic(t *testing.T) {
	t.Parallel()
	rnd := rand.New(rand.NewSource(11))
	cases := 20
	if testing.Short() {
		cases = 5
	}
	for i := 0; i < cases; i++ {
		sc := FaultScenario{
			Scenario: Scenario{
				Type:       wfgen.Chain,
				N:          4 + rnd.Intn(6),
				SigmaRatio: 0.3,
				Instances:  1 + rnd.Intn(2),
				Reps:       1 + rnd.Intn(3),
				Workers:    1 + rnd.Intn(3),
				Seed:       rnd.Uint64() % 1000,
			},
			Rates:        []float64{0.2 + rnd.Float64()},
			BudgetFactor: 1.5,
			Spec:         fault.Spec{BootFailProb: 0.1},
		}

		want, err := RunFaultSweepCtx(context.Background(), sc)
		if err != nil {
			t.Fatalf("case %d: monolithic: %v", i, err)
		}

		fs, err := NewFaultSweep(sc)
		if err != nil {
			t.Fatal(err)
		}
		shards := randomShards(rnd, fs.Cells())
		rnd.Shuffle(len(shards), func(a, b int) { shards[a], shards[b] = shards[b], shards[a] })
		var units []Unit
		for _, sh := range shards {
			got, err := fs.Run(context.Background(), sc.Workers, sh[0], sh[1])
			if err != nil {
				t.Fatalf("case %d: shard [%d,%d): %v", i, sh[0], sh[1], err)
			}
			units = append(units, got...)
		}
		merged, err := fs.Merge(units)
		if err != nil {
			t.Fatalf("case %d: merge: %v", i, err)
		}
		// The scenario echo carries Alg.Plan, a func value, which
		// DeepEqual never considers equal; the data is what matters.
		merged.Scenario = FaultScenario{}
		want.Scenario = FaultScenario{}
		if !reflect.DeepEqual(merged, want) {
			t.Fatalf("case %d: merged fault sweep differs from monolithic", i)
		}
	}
}

// TestSweepDeterministicAcrossGOMAXPROCS pins that the cell
// enumeration and the full sweep result are independent of
// GOMAXPROCS: the same scenario run under 1, 2 and 8 procs (with the
// worker count following GOMAXPROCS, as the Defaults path does) is
// bit-identical.
func TestSweepDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	sc := Scenario{Type: wfgen.ForkJoin, N: 10, Instances: 2, Reps: 4, Seed: 3}
	alg, err := sched.ByName(sched.NameHeftBudg)
	if err != nil {
		t.Fatal(err)
	}
	algs := []sched.Algorithm{alg}

	var base *SweepResult
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		scp := sc
		scp.Workers = 0 // defaults to GOMAXPROCS
		res, err := RunSweepCtx(context.Background(), scp, algs, 3)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		stripTiming(res)
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(res, base) {
			t.Fatalf("GOMAXPROCS=%d: sweep result differs from GOMAXPROCS=1", procs)
		}

		// The unit enumeration itself must also be invariant.
		if g, want := mustSweep(t, scp, algs, 3).Cells(), mustSweep(t, sc, algs, 3).Cells(); g != want {
			t.Fatalf("GOMAXPROCS=%d: grid of %d cells, want %d", procs, g, want)
		}
	}
}
