// Package est implements an analytic (moment/quantile-propagation)
// estimator for the stochastic makespan and cost distributions of a
// fixed schedule, replacing Monte Carlo replication on the sweep hot
// path.
//
// Every timestamp of the execution (task finish, VM booking, VM
// release) is approximated by a Gaussian tracked as (mean, variance).
// Task durations contribute the *truncated* moments of the weight
// distribution — stoch.Dist.TruncatedMoments, the exact moments of
// what the simulator actually samples — scaled by the VM speed.
// Deterministic transfers and boot delays shift means; serial
// composition adds independent variances; precedence joins (max of
// arrival times) use Clark's moment-matching approximation of the
// maximum of two Gaussians under an independence assumption
// (Sculli-style propagation). Costs follow the billing model exactly
// in expectation, including the ceil to a billing quantum.
//
// The estimator mirrors internal/sim's semantics event for event in
// the unbounded-datacenter regime (the paper's standing assumption).
// It refuses fluid bandwidth sharing (Platform.DCBandwidth > 0):
// contention couples concurrent flows in a way moment propagation
// cannot capture, and Monte Carlo remains authoritative there —
// as it does whenever exact tail behaviour (not a Gaussian fit of it)
// is the object of study. Validation: est's test suite proves exact
// agreement with the simulator at σ = 0 and tracks a high-replication
// Monte Carlo reference within a few percent across the paper's
// workflow families and σ/w̄ grid.
package est

import "math"

// Gauss is a Gaussian distribution tracked by its first two moments.
// Var == 0 degenerates to a point mass, which keeps deterministic
// schedules exact.
type Gauss struct {
	Mean float64
	Var  float64
}

// Sigma returns the standard deviation.
func (g Gauss) Sigma() float64 { return math.Sqrt(g.Var) }

// Add shifts the distribution by a constant.
func (g Gauss) Add(c float64) Gauss { return Gauss{Mean: g.Mean + c, Var: g.Var} }

// Plus returns the sum with an independent Gaussian.
func (g Gauss) Plus(o Gauss) Gauss { return Gauss{Mean: g.Mean + o.Mean, Var: g.Var + o.Var} }

// Scale multiplies the variable by a non-negative constant.
func (g Gauss) Scale(c float64) Gauss { return Gauss{Mean: g.Mean * c, Var: g.Var * c * c} }

// Quantile returns the p-quantile (0 < p < 1; p is clamped to that
// open interval). A point mass returns its location for every p.
func (g Gauss) Quantile(p float64) float64 {
	if g.Var == 0 {
		return g.Mean
	}
	if p < quantileEps {
		p = quantileEps
	} else if p > 1-quantileEps {
		p = 1 - quantileEps
	}
	return g.Mean + g.Sigma()*math.Sqrt2*math.Erfinv(2*p-1)
}

// quantileEps bounds Quantile away from the infinite tails.
const quantileEps = 1e-9

// Tail returns P(X > x). A point mass steps from 1 to 0 at its
// location (P(X > Mean) = 0, matching a deterministic outcome that
// exactly meets a budget x = Mean).
func (g Gauss) Tail(x float64) float64 {
	if g.Var == 0 {
		if x < g.Mean {
			return 1
		}
		return 0
	}
	return 1 - stdCDF((x-g.Mean)/g.Sigma())
}

// maxSkew clamps the standardized third moments used by skewQuantile
// and skewTail. The one-term Cornish–Fisher map z ↦ z + γ/6·(z²−1)
// is only monotone for |z| < 3/γ; together with the z clamp below,
// 0.6 keeps the quantile function monotone over the full p range
// while covering the skews truncated durations actually produce
// (≤ 0.59 per task at σ/w̄ = 1, smaller after aggregation).
const maxSkew = 0.6

// clampSkew bounds a standardized third moment to ±maxSkew.
func clampSkew(s float64) float64 {
	if s > maxSkew {
		return maxSkew
	}
	if s < -maxSkew {
		return -maxSkew
	}
	return s
}

// skewQuantile is Quantile with a one-term Cornish–Fisher skew
// correction: z ↦ z + γ/6·(z²−1). The z entering the correction term
// is clamped to ±3/|γ| so the map stays monotone into the extreme
// tails (beyond the clamp the correction freezes and the Gaussian
// term keeps growing).
func skewQuantile(g Gauss, skew, p float64) float64 {
	skew = clampSkew(skew)
	if g.Var == 0 || skew == 0 {
		return g.Quantile(p)
	}
	if p < quantileEps {
		p = quantileEps
	} else if p > 1-quantileEps {
		p = 1 - quantileEps
	}
	z := math.Sqrt2 * math.Erfinv(2*p-1)
	zm := 3 / math.Abs(skew)
	zc := z
	if zc > zm {
		zc = zm
	} else if zc < -zm {
		zc = -zm
	}
	return g.Mean + g.Sigma()*(z+skew/6*(zc*zc-1))
}

// skewTail is Tail with the matching one-term Edgeworth correction:
// P(X > x) ≈ 1 − Φ(z) + γ/6·(z²−1)·φ(z), clamped to [0, 1].
func skewTail(g Gauss, skew, x float64) float64 {
	skew = clampSkew(skew)
	if g.Var == 0 || skew == 0 {
		return g.Tail(x)
	}
	z := (x - g.Mean) / g.Sigma()
	t := 1 - stdCDF(z) + skew/6*(z*z-1)*stdPDF(z)
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

// stdPDF is the standard normal density φ.
func stdPDF(x float64) float64 { return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi) }

// stdCDF is the standard normal distribution function Φ.
func stdCDF(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }
