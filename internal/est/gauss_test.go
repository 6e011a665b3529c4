package est

import (
	"math"
	"testing"
)

func TestGaussAlgebra(t *testing.T) {
	g := Gauss{Mean: 3, Var: 4}
	if got := g.Add(2); got.Mean != 5 || got.Var != 4 {
		t.Errorf("Add: %+v", got)
	}
	if got := g.Plus(Gauss{Mean: 1, Var: 9}); got.Mean != 4 || got.Var != 13 {
		t.Errorf("Plus: %+v", got)
	}
	if got := g.Scale(3); got.Mean != 9 || got.Var != 36 {
		t.Errorf("Scale: %+v", got)
	}
	if g.Sigma() != 2 {
		t.Errorf("Sigma: %v", g.Sigma())
	}
}

func TestQuantileTailRoundTrip(t *testing.T) {
	g := Gauss{Mean: 10, Var: 4}
	for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.99} {
		x := g.Quantile(p)
		if back := 1 - g.Tail(x); math.Abs(back-p) > 1e-9 {
			t.Errorf("Tail(Quantile(%v)) = %v", p, 1-back)
		}
	}
	if g.Quantile(0.5) != 10 {
		t.Errorf("median %v", g.Quantile(0.5))
	}
	// Point mass: quantiles collapse to the location, the tail is a step
	// with P(X > Mean) = 0 so exactly meeting a budget is not an overrun.
	pm := Gauss{Mean: 7}
	if pm.Quantile(0.01) != 7 || pm.Quantile(0.99) != 7 {
		t.Errorf("point-mass quantiles %v %v", pm.Quantile(0.01), pm.Quantile(0.99))
	}
	if pm.Tail(6.9) != 1 || pm.Tail(7) != 0 || pm.Tail(7.1) != 0 {
		t.Errorf("point-mass tail %v %v %v", pm.Tail(6.9), pm.Tail(7), pm.Tail(7.1))
	}
	// Extreme p values are clamped, not infinite.
	if math.IsInf(g.Quantile(0), 0) || math.IsInf(g.Quantile(1), 0) {
		t.Error("Quantile(0)/Quantile(1) must be finite")
	}
}
