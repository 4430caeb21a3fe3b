// Package xrand provides a small, fully deterministic random number
// generator and the samplers used across the simulator and the
// benchmark's request streams. Every stochastic component in this
// repository draws from an
// explicitly seeded *Rand so that all experiments are reproducible.
//
// The core generator is splitmix64, which is tiny, fast, passes BigCrush,
// and — unlike math/rand's global state — makes seed plumbing explicit.
package xrand

import "math"

// Rand is a deterministic pseudo-random generator based on splitmix64.
// The zero value is a valid generator seeded with 0; prefer New to make
// seeding explicit.
type Rand struct {
	state uint64
	// cached spare normal variate for Box-Muller.
	hasSpare bool
	spare    float64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Split derives a new independent generator from r. The derived stream is
// decorrelated from r's by an extra mixing step, which lets callers hand
// out per-component generators without sharing state.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// HashString folds a label into a 64-bit stream salt. It is how named
// components — one calibration per device, one sweep per kernel family
// — derive decorrelated seeds from a shared base seed without any
// ordering dependence: stream(seed, label) = seed + HashString(label).
//
// The fold is FNV-1a's (xor, then multiply by the 64-bit FNV prime),
// but its offset basis, 1469598103934665603, is FNV-1a's
// 14695981039346656037 with the last digit dropped, so the values are
// not FNV-1a hashes (Device.quirk and sim.opHash use the true basis).
// The basis stays: every DeviceSalt, derived seed and scenario
// fingerprint depends on it, and TestHashStringStableAndDistinct pins
// it.
func HashString(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// HashBytes is HashString over a byte slice: the same fold and basis,
// so HashBytes(b) == HashString(string(b)) without the conversion
// allocation. Hot cache-key builders hash scratch buffers through it.
func HashBytes(b []byte) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * 1099511628211
	}
	return h
}

// AppendHex16 appends v as 16 zero-padded lowercase hex digits — the
// %016x rendering cache keys embed hashes with, shared here so every
// key builder renders hashes identically.
func AppendHex16(b []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	var t [16]byte
	for i := 15; i >= 0; i-- {
		t[i] = digits[v&0xf]
		v >>= 4
	}
	return append(b, t[:]...)
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns a non-negative random int64.
func (r *Rand) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *Rand) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// LogNormal returns a variate whose logarithm is Normal(mu, sigma).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// LogNormalDist is a log-normal distribution parameterized by its
// arithmetic mean and coefficient of variation (std/mean), the natural
// parameterization for host-overhead distributions, where we know the
// target mean (e.g., "T1 averages 8 µs") and the relative spread. The
// two logarithms and the square root that turn (mean, cv) into (mu,
// sigma) are paid once at construction instead of once per variate.
// The zero value always draws 0.
type LogNormalDist struct {
	// mu and sigma parameterize the variate's logarithm; a degenerate
	// distribution (random unset) draws the constant mu and consumes
	// nothing from the generator.
	mu, sigma float64
	random    bool
}

// LogNormalMeanCVDist derives the distribution of mean and cv: it draws
// 0 for a non-positive mean, the mean itself for a non-positive cv.
func LogNormalMeanCVDist(mean, cv float64) LogNormalDist {
	if mean <= 0 {
		return LogNormalDist{}
	}
	if cv <= 0 {
		return LogNormalDist{mu: mean}
	}
	sigma2 := math.Log(1 + cv*cv)
	return LogNormalDist{mu: math.Log(mean) - sigma2/2, sigma: math.Sqrt(sigma2), random: true}
}

// Draw returns one variate of d.
func (r *Rand) Draw(d LogNormalDist) float64 {
	if !d.random {
		return d.mu
	}
	return r.LogNormal(d.mu, d.sigma)
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly reorders the n elements addressed by swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Zipf samples integers in [0, n) with probability proportional to
// 1/(i+1)^s. It precomputes the CDF, so construct once and sample many
// times. A skew s of 0 degenerates to the uniform distribution.
type Zipf struct {
	cdf []float64
	rng *Rand
}

// NewZipf builds a Zipf sampler over [0, n) with exponent s >= 0, drawing
// randomness from rng. It panics if n <= 0 or s < 0.
func NewZipf(rng *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	if s < 0 {
		panic("xrand: NewZipf with negative skew")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// ZipfStream draws length indices in [0, n) from a fresh Zipf(s)
// sampler over rng — the skewed access stream of the explore
// benchmark workloads. It is exactly
// NewZipf(rng, n, s) followed by length Next calls, so a caller that
// previously inlined that loop sees bit-identical draws.
//
//lint:allow unlinked gated benchmark: BenchmarkSweepNovel (internal/serve) draws its batch axis here
func ZipfStream(rng *Rand, n int, s float64, length int) []int {
	z := NewZipf(rng, n, s)
	stream := make([]int, length)
	for i := range stream {
		stream[i] = z.Next()
	}
	return stream
}

// Next samples one value in [0, n).
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	// Binary search for the first CDF entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
