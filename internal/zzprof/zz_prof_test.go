package zzprof

import (
	"testing"

	"budgetwf/internal/exp"
	"budgetwf/internal/online"
	"budgetwf/internal/platform"
	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/sim"
	"budgetwf/internal/wfgen"
)

func BenchmarkZZRunner(b *testing.B) {
	w, _ := wfgen.Generate(wfgen.Montage, 300, 1)
	w = w.WithSigmaRatio(0.5)
	p := platform.Default()
	a, _ := exp.ComputeAnchors(w, p)
	s, _ := sched.HeftBudg(w, p, (a.CheapCost+a.High)/2)
	r, _ := sim.NewRunner(w, p, s)
	stream := rng.New(1)
	b.Run("mc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := r.RunStochastic(stream.Split(uint64(i % 25))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("online", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := online.ExecuteStochastic(w, p, s, stream.Split(uint64(i%25)), online.DefaultPolicy((a.CheapCost+a.High)/2)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestZZAllocs(t *testing.T) {
	w, _ := wfgen.Generate(wfgen.Montage, 300, 1)
	w = w.WithSigmaRatio(0.5)
	p := platform.Default()
	a, _ := exp.ComputeAnchors(w, p)
	s, _ := sched.HeftBudg(w, p, (a.CheapCost+a.High)/2)
	weights := sim.ConservativeWeights(w)
	t.Logf("sim.Run allocs %v", testing.AllocsPerRun(50, func() { sim.Run(w, p, s, weights) }))
	t.Logf("RunDeterministic allocs %v", testing.AllocsPerRun(50, func() { sim.RunDeterministic(w, p, s) }))
	t.Logf("online.Execute allocs %v", testing.AllocsPerRun(50, func() { online.Execute(w, p, s, weights, online.DefaultPolicy(a.High)) }))
}
