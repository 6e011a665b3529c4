// Package rng provides a small, deterministic, splittable random number
// generator used by the workflow generators, the stochastic weight
// sampler, and the experiment harness.
//
// Determinism across runs and across Go versions matters for this
// reproduction: every experiment in EXPERIMENTS.md is identified by a
// seed, and re-running the harness must regenerate identical workloads.
// The standard library's math/rand does not guarantee a stable stream
// across Go releases for all constructors, so we implement a fixed
// algorithm: xoshiro256** seeded through splitmix64, following the
// public-domain reference by Blackman and Vigna.
package rng

import "math"

// RNG is a deterministic pseudo-random number generator. It is not safe
// for concurrent use; derive independent streams with Split instead of
// sharing one instance across goroutines.
type RNG struct {
	s [4]uint64
	// spare holds a cached second normal deviate from the polar method.
	spare    float64
	hasSpare bool
}

// splitmix64 advances the given state and returns the next output.
// It is used only for seeding, as recommended by the xoshiro authors.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given 64-bit seed. Two
// generators with the same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.seed(seed)
	return r
}

// seed is New's work, out of line so that New and Split are small enough
// to inline: a generator that does not outlive its caller — one Split per
// replication of a Monte Carlo loop — then lives on the caller's stack.
func (r *RNG) seed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state; splitmix64 of any
	// seed cannot produce four zero outputs, but guard regardless.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform deviate in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	un := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, un)
		if lo >= un || lo >= (-un)%un {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hiPart := t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + hiPart + t>>32
	return hi, lo
}

// NormFloat64 returns a standard normal deviate using the Marsaglia
// polar method. Deviates are cached in pairs, so the stream consumed
// from Uint64 depends only on the call sequence.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// ExpFloat64 returns an exponential deviate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Split derives an independent generator identified by label. The
// derived stream is a pure function of the parent's seed state at the
// time of the call and of the label, so sibling streams obtained with
// distinct labels are decorrelated and reproducible.
func (r *RNG) Split(label uint64) *RNG {
	child := &RNG{}
	child.seedFrom(r, label)
	return child
}

// seedFrom is Split's work, out of line for the same reason as seed.
func (r *RNG) seedFrom(parent *RNG, label uint64) {
	// Mix the parent's state with the label through splitmix64.
	p := &parent.s
	r.seed(p[0] ^ rotl(p[1], 13) ^ rotl(p[2], 29) ^ rotl(p[3], 43) ^ (label * 0x9e3779b97f4a7c15))
}
