package est

import "math"

// joinCut is the kernel's domination threshold in units of the
// difference spread a = sd(X−Y): beyond it the join copies the winning
// operand instead of blending. At 5 spreads the discarded operand
// shifts the mean by a·(φ(5) − 5·(1−Φ(5))) ≈ 4e-8·a — far below the
// estimator's validated tolerance — and the cut keeps every Φ/φ table
// lookup inside [−5, 5].
const joinCut = 5.0

// softJoinCut is the sketch regime's cheaper domination threshold: past
// 2.5 spreads the loser's blending weight is Φ(−2.5) ≈ 6e-3, so the
// join copies the winner's sensitivities and keeps only Clark's exact
// mean. The mean stays exact; the variance and correlation errors are
// bounded by that weight — well below the sketch regime's collision
// noise. The exact (n ≤ exactTrackLimit) regime passes joinCut here,
// which disables the shortcut and preserves the validated 2% grid
// bit for bit.
const softJoinCut = 2.5

// vec is a timestamp (or cost) random variable in canonical first-order
// form, the representation used by statistical static timing analysis:
//
//	X = mean + Σ_b comp[b]·ξ_b + √extra·ξ_X
//
// with ξ_b the independent standardized noise of basis dimension b and
// ξ_X a residual noise private to X. For workflows up to
// exactTrackLimit tasks the basis is one dimension per task (ξ_b is
// task b's duration noise, tracked exactly); beyond that it is a
// deterministic count sketch of the task-noise space (see Compute).
// Carrying per-dimension sensitivities is what lets a join compute the
// correlation of its operands: the finish times of two tasks that
// share ancestors — or sit on the same serial VM chain — are strongly
// correlated, and Clark's max under a wrong ρ = 0 assumption inflates
// every join (observed as a +15–30% makespan bias on join-heavy LIGO
// schedules).
//
// sq caches Σ comp² and sd caches √(extra+sq), so total variance and
// the O(1) pre-domination test never rescan the components. Every
// mutation below maintains both.
type vec struct {
	mean  float64
	extra float64   // residual variance private to this variable
	sq    float64   // cached Σ comp[b]²
	sd    float64   // cached √(extra + sq)
	comp  []float64 // sensitivities, length = basis dimension
}

// variance returns the total variance Σ comp² + extra.
func (x *vec) variance() float64 { return x.extra + x.sq }

// gauss collapses the canonical form to its marginal.
func (x *vec) gauss() Gauss { return Gauss{Mean: x.mean, Var: x.variance()} }

// copyFrom overwrites dst with src shifted by a deterministic delta.
func (dst *vec) copyFrom(src *vec, shift float64) {
	dst.mean = src.mean + shift
	dst.extra = src.extra
	dst.sq = src.sq
	dst.sd = src.sd
	copy(dst.comp, src.comp)
}

// zero resets dst to the deterministic point mass at 0.
func (dst *vec) zero() {
	dst.mean = 0
	dst.extra = 0
	dst.sq = 0
	dst.sd = 0
	for i := range dst.comp {
		dst.comp[i] = 0
	}
}

// inject adds delta·ξ_b to the variable (a task's own duration noise
// entering its finish time), updating the caches in O(1).
func (x *vec) inject(b int, delta float64) {
	c := x.comp[b]
	x.comp[b] = c + delta
	x.sq += delta * (2*c + delta)
	if x.sq < 0 {
		x.sq = 0 // numeric noise when components cancel
	}
	x.sd = math.Sqrt(x.extra + x.sq)
}

// joinInto sets dst to the moment-matched maximum (or, with min=true,
// minimum) of x+xs and y+ys (Clark, 1961, with the pairwise
// correlation implied by the shared components). dst may alias x or y;
// xs and ys are deterministic shifts, so transfer-delayed copies of a
// finish time never need a materialized temporary. The blended result
// keeps the canonical form: comp_dst = wx·comp_x + wy·comp_y with
// Clark's blending weights, and the components are rescaled so the
// total variance matches Clark's exactly.
//
// gamma holds the per-dimension skewness of the standardized noises
// ξ_b. Clark's formulas assume Gaussian operands, but a left-truncated
// duration is right-skewed (≈0.59 at σ/w̄ = 1), which shifts E[max].
// The one-term Edgeworth expansion of the difference D = X − Y — whose
// third cumulant the shared components give as κ_D = Σ (cx−cy)³·γ_b —
// corrects the mean by −κ_D·α·φ(α)/(6a²); numerically this cuts
// Clark's mean error ~4× against brute-force maxima of
// truncated-normal sums. For the minimum every sign flips
// self-consistently (min(X,Y) = −max(−X,−Y)).
//
// soft is the soft-domination threshold (softJoinCut in the sketch
// regime, joinCut — i.e. disabled — in the exact regime).
func joinInto(dst, x, y *vec, xs, ys float64, gamma []float64, soft float64, min bool) {
	xm, ym := x.mean+xs, y.mean+ys
	// O(1) pre-domination on the cached deviations: the summed σ bound
	// dominates the correlation-aware spread a, so any hit here is also
	// a hit of the exact a-based shortcut below. This is what keeps
	// deterministic (σ = 0) joins — and strongly separated stochastic
	// ones — from paying the component walk at all.
	if sdSum := joinCut * (x.sd + y.sd); xm-ym >= sdSum {
		if min {
			dst.copyFrom(y, ys)
		} else {
			dst.copyFrom(x, xs)
		}
		return
	} else if ym-xm >= sdSum {
		if min {
			dst.copyFrom(x, xs)
		} else {
			dst.copyFrom(y, ys)
		}
		return
	}
	// a² = Var(X − Y) = Σ (cx − cy)² + extras: the correlation-aware
	// spread of the difference, fused with the third-cumulant
	// accumulation for the Edgeworth mean correction. The reduction is
	// four-wide: a single accumulator serializes on the FP add latency,
	// which measurably dominates this walk at sketch width.
	xc := x.comp
	yc := y.comp[:len(xc)]
	var a20, a21, a22, a23 float64
	i := 0
	for ; i+4 <= len(xc); i += 4 {
		d0 := xc[i] - yc[i]
		d1 := xc[i+1] - yc[i+1]
		d2 := xc[i+2] - yc[i+2]
		d3 := xc[i+3] - yc[i+3]
		a20 += d0 * d0
		a21 += d1 * d1
		a22 += d2 * d2
		a23 += d3 * d3
	}
	for ; i < len(xc); i++ {
		d := xc[i] - yc[i]
		a20 += d * d
	}
	a2 := x.extra + y.extra + ((a20 + a21) + (a22 + a23))
	if a2 == 0 {
		// Perfectly correlated (or both deterministic): the extreme mean
		// wins outright.
		if (xm >= ym) != min {
			dst.copyFrom(x, xs)
		} else {
			dst.copyFrom(y, ys)
		}
		return
	}
	a := math.Sqrt(a2)
	inv := 1 / a
	alpha := (xm - ym) * inv
	abs := alpha
	if abs < 0 {
		abs = -abs
	}
	// Domination shortcut on the exact spread (see joinCut): copying
	// the winner keeps point masses exact.
	if abs >= joinCut {
		if (alpha > 0) != min {
			dst.copyFrom(x, xs)
		} else {
			dst.copyFrom(y, ys)
		}
		return
	}
	cdf, pdf := phiPair(alpha)
	ncdf := 1 - cdf
	// Clark's blending weight of x: P(X > Y) for the max, P(X < Y) for
	// the min; the density term enters with opposite signs.
	wx, wy, sgn := cdf, ncdf, 1.0
	if min {
		wx, wy, sgn = ncdf, cdf, -1.0
	}
	mean := xm*wx + ym*wy + sgn*a*pdf
	if abs >= soft {
		// Soft domination: the loser's weight is below Φ(−soft), so the
		// blended sensitivities are the winner's to within that weight
		// and the variance shift is second-order — copy the winner's
		// spread but keep Clark's exact mean. This skips the blend,
		// the variance match, and the third-cumulant walk; the dropped
		// Edgeworth mean term is O(γ·a·α·φ(α)), below 1e-2·a at the
		// softJoinCut used.
		if (alpha > 0) != min {
			dst.copyFrom(x, xs)
		} else {
			dst.copyFrom(y, ys)
		}
		dst.mean = mean
		return
	}
	// Third cumulant of the difference for the Edgeworth mean
	// correction — walked separately so soft-dominated joins never pay
	// for it.
	var kD0, kD1, kD2, kD3 float64
	i = 0
	for ; i+4 <= len(xc); i += 4 {
		d0 := xc[i] - yc[i]
		d1 := xc[i+1] - yc[i+1]
		d2 := xc[i+2] - yc[i+2]
		d3 := xc[i+3] - yc[i+3]
		kD0 += d0 * d0 * d0 * gamma[i]
		kD1 += d1 * d1 * d1 * gamma[i+1]
		kD2 += d2 * d2 * d2 * gamma[i+2]
		kD3 += d3 * d3 * d3 * gamma[i+3]
	}
	for ; i < len(xc); i++ {
		d := xc[i] - yc[i]
		kD0 += d * d * d * gamma[i]
	}
	kD := (kD0 + kD1) + (kD2 + kD3)
	varX := x.extra + x.sq
	varY := y.extra + y.sq
	m2 := (xm*xm+varX)*wx + (ym*ym+varY)*wy + sgn*(xm+ym)*a*pdf
	clarkVar := m2 - mean*mean
	if clarkVar < 0 {
		clarkVar = 0
	}
	// Skew correction to the mean (see the function comment); the
	// variance keeps Clark's Gaussian-operand value, a higher-order
	// effect the validation suite shows is negligible.
	skewCorr := -sgn * kD * alpha * pdf * inv * inv / 6
	priv := wx*wx*x.extra + wy*wy*y.extra
	// The blended components' energy Σ (wx·cx + wy·cy)² follows in
	// O(1) from the cached per-operand energies: Σ cx·cy =
	// (Σcx² + Σcy² − Σ(cx−cy)²)/2, and Σ(cx−cy)² = a² − extras. That
	// lets the scale factor below be known before the blend walk, so
	// blending and variance-match rescaling fuse into a single pass.
	cross := 0.5 * (x.sq + y.sq - (a2 - x.extra - y.extra))
	sumComp := wx*wx*x.sq + wy*wy*y.sq + 2*wx*wy*cross
	if sumComp < 0 {
		sumComp = 0 // fp cancellation
	}
	dst.mean = mean + skewCorr
	// Match Clark's variance exactly by rescaling the *shared*
	// components, not by growing the private residual: the φ-term's
	// excess variance belongs to the same underlying task noises the
	// operands carry. Sibling joins over the same ancestors (two VM
	// chains fed by one fan-out, say) then stay strongly correlated,
	// and the final cross-VM max does not re-inflate what is really one
	// shared uncertainty. (An earlier version pushed the excess into
	// `extra`; after a few join generations most variance was private,
	// correlations evaporated, and the last-event max overshot MC by
	// 3–5% on join-heavy families.) If the operands have no shared
	// components at all, the residual is the only place left.
	target := clarkVar - priv
	var s float64
	switch {
	case target <= 0:
		// Private parts alone cover (or exceed) Clark's variance:
		// scale everything down proportionally to keep the marginal.
		total := priv + sumComp
		if total > 0 {
			ratio := clarkVar / total
			s = math.Sqrt(ratio)
			dst.sq = sumComp * ratio
			dst.extra = priv * ratio
		} else {
			dst.sq = 0
			dst.extra = clarkVar
		}
	case sumComp > 0:
		s = math.Sqrt(target / sumComp)
		dst.sq = target
		dst.extra = priv
	default:
		dst.sq = 0
		dst.extra = clarkVar
	}
	swx, swy := s*wx, s*wy
	dc := dst.comp[:len(xc)]
	for i, cx := range xc {
		dc[i] = swx*cx + swy*yc[i]
	}
	dst.sd = math.Sqrt(dst.extra + dst.sq)
}

// subInto sets dst to x − y with the correlation carried by the shared
// components: mean difference, summed private residuals, and
// component-wise sensitivity difference. The sd cache is NOT updated
// (left 0): differences (makespan, billed spans) are terminal values
// read through gauss()/variance()/vecSkew, never join operands, so the
// square root would be wasted on the hot path.
func subInto(dst, x, y *vec) {
	dst.mean = x.mean - y.mean
	dst.extra = x.extra + y.extra
	sq := 0.0
	xc := x.comp
	yc := y.comp[:len(xc)]
	dc := dst.comp[:len(xc)]
	for i, cx := range xc {
		c := cx - yc[i]
		dc[i] = c
		sq += c * c
	}
	dst.sq = sq
	dst.sd = 0
}

// vecSkew returns the standardized third moment of a canonical-form
// variable as implied by its shared components (the private residuals
// are treated as symmetric): κ₃ = Σ c³·γ over variance^{3/2}. It
// understates the true skew — the max operations generate additional
// right skew Clark's Gaussianization discards — so quantile
// corrections built on it are conservative.
func vecSkew(x *vec, gamma []float64, variance float64) float64 {
	if variance <= 0 {
		return 0
	}
	k := 0.0
	for i, c := range x.comp {
		if g := gamma[i]; g != 0 {
			k += c * c * c * g
		}
	}
	return k / math.Pow(variance, 1.5)
}
