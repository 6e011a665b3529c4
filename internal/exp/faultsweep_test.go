package exp

import (
	"context"
	"math"
	"reflect"
	"testing"

	"budgetwf/internal/fault"
	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/sim"
	"budgetwf/internal/wfgen"
)

func smallFaultScenario() FaultScenario {
	return FaultScenario{
		Scenario: Scenario{
			Type:      wfgen.Montage,
			N:         12,
			Instances: 2,
			Reps:      5,
			Workers:   2,
		},
		Rates: []float64{0, 50},
		Spec:  fault.Spec{Recovery: "retry-same"},
	}
}

// TestFaultSweepZeroRateAnchor pins the λ = 0 point to the plain
// simulator: with no faults to inject, every execution completes, no
// counters move, and the mean makespan equals an independent sim.Run
// over the same weight streams.
func TestFaultSweepZeroRateAnchor(t *testing.T) {
	sc := smallFaultScenario()
	res, err := RunFaultSweep(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Points[0].Rate != 0 {
		t.Fatalf("want points for rates {0, 50}, got %+v", res.Points)
	}
	p0 := res.Points[0]
	if p0.SuccessRate != 1 || p0.WithinBudget != 1 {
		t.Fatalf("λ=0 point not all-success: %+v", p0)
	}
	if p0.Crashes != 0 || p0.BootFailures != 0 || p0.TaskFailures != 0 ||
		p0.Recoveries != 0 || p0.RecoveriesVetoed != 0 || p0.WastedSeconds != 0 {
		t.Fatalf("λ=0 point has nonzero fault counters: %+v", p0)
	}
	if p0.MakespanFactor != 1 || p0.CostFactor != 1 {
		t.Fatalf("anchor degradation factors not 1: %+v", p0)
	}

	// Recompute the λ=0 mean makespan independently with the plain
	// simulator, mirroring the sweep's stream derivation.
	scd := res.Scenario // defaults resolved
	alg, err := sched.ByName(sched.NameHeftBudg)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	var n int
	for i := 0; i < scd.Instances; i++ {
		w, err := scd.Instance(i)
		if err != nil {
			t.Fatal(err)
		}
		a, err := ComputeAnchors(w, scd.Platform)
		if err != nil {
			t.Fatal(err)
		}
		s, err := alg.Plan(w, scd.Platform, 1.5*a.CheapCost)
		if err != nil {
			t.Fatal(err)
		}
		stream := rng.New(scd.Seed).Split(uint64(i)<<32 | hashName("fault-weights"))
		for rep := 0; rep < scd.Reps; rep++ {
			r, err := sim.Run(w, scd.Platform, s, sim.SampleWeights(w, stream.Split(uint64(rep))))
			if err != nil {
				t.Fatal(err)
			}
			sum += r.Makespan
			n++
		}
	}
	if want := sum / float64(n); math.Abs(p0.Makespan.Mean-want) > 1e-9 {
		t.Fatalf("λ=0 mean makespan %g, plain simulator says %g", p0.Makespan.Mean, want)
	}
}

// TestFaultSweepDegradation checks that a high crash rate actually
// produces crashes and recovery activity, and that metrics stay in
// range.
func TestFaultSweepDegradation(t *testing.T) {
	sc := smallFaultScenario()
	res, err := RunFaultSweep(sc)
	if err != nil {
		t.Fatal(err)
	}
	hot := res.Points[len(res.Points)-1]
	if hot.Rate != 50 {
		t.Fatalf("want hottest point at λ=50, got %g", hot.Rate)
	}
	if hot.Crashes == 0 {
		t.Fatalf("λ=50/hour produced no crashes: %+v", hot)
	}
	if hot.Recoveries == 0 && hot.RecoveriesVetoed == 0 {
		t.Fatalf("crashes but no recovery activity: %+v", hot)
	}
	for _, p := range res.Points {
		if p.SuccessRate < 0 || p.SuccessRate > 1 || p.WithinBudget < 0 || p.WithinBudget > 1 {
			t.Fatalf("fractions out of range: %+v", p)
		}
		if p.Cost.N != sc.Instances*sc.Reps {
			t.Fatalf("cost summary over %d runs, want %d", p.Cost.N, sc.Instances*sc.Reps)
		}
	}
	if hot.SuccessRate == 1 && hot.WastedSeconds == 0 {
		t.Fatalf("crashes wasted no time: %+v", hot)
	}
}

// TestFaultSweepDeterminism: the sweep is a pure function of the
// scenario.
func TestFaultSweepDeterminism(t *testing.T) {
	a, err := RunFaultSweep(smallFaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFaultSweep(smallFaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Points, b.Points) {
		t.Fatalf("sweep not deterministic:\n%+v\nvs\n%+v", a.Points, b.Points)
	}
}

// TestFaultSweepRateGrid: the grid is sorted, deduplicated of
// nothing, anchored at zero, and negative rates are rejected.
func TestFaultSweepRateGrid(t *testing.T) {
	sc := smallFaultScenario()
	sc.Rates = []float64{0.5} // no zero anchor supplied
	sc.Reps = 2
	res, err := RunFaultSweep(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Points[0].Rate != 0 || res.Points[1].Rate != 0.5 {
		t.Fatalf("zero anchor not prepended: %+v", res.Points)
	}

	sc.Rates = []float64{-1}
	if _, err := RunFaultSweep(sc); err == nil {
		t.Fatal("negative rate accepted")
	}
	// NaN is refused by Normalize, before any instance is planned.
	sc.Rates = []float64{math.NaN(), 0.1}
	if _, err := sc.Normalize(); err == nil {
		t.Fatal("NaN rate accepted")
	}

	sc.Rates = nil
	sc.Spec.Recovery = "bogus"
	if _, err := RunFaultSweep(sc); err == nil {
		t.Fatal("invalid recovery policy accepted")
	}
}

// TestFaultSweepCancel: a cancelled context aborts the sweep.
func TestFaultSweepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunFaultSweepCtx(ctx, smallFaultScenario()); err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
}
