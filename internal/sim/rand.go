package sim

import "math"

// Rand is a small, fast, seedable PRNG (xorshift64*) used by workload
// generators and failure injection. It is deliberately not math/rand so that
// each worker thread owns an independent generator with zero locking, and so
// that experiment runs are reproducible from a single seed.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed (0 is remapped).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniform value in [0, n). n must be > 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative pseudo-random int64.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// UniformInt returns a uniform value in [lo, hi] inclusive, per the TPC-C
// random(x, y) definition.
func (r *Rand) UniformInt(lo, hi int) int {
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo + r.Intn(hi-lo+1)
}

// NURand implements the TPC-C non-uniform random distribution
// NURand(A, x, y) = (((random(0,A) | random(x,y)) + C) % (y-x+1)) + x.
func (r *Rand) NURand(a, x, y, c int) int {
	return (((r.UniformInt(0, a) | r.UniformInt(x, y)) + c) % (y - x + 1)) + x
}

// Zipf draws from a Zipf-like distribution over [0, n): rank = n*u^(1/(1-theta)).
// theta in (0,1) skews toward low ranks; SmallBank uses this for its hot
// accounts ("a few accounts receive most of the requests").
func (r *Rand) Zipf(n int, theta float64) int {
	if n <= 1 {
		return 0
	}
	if theta <= 0 {
		return r.Intn(n)
	}
	if theta >= 1 {
		theta = 0.999
	}
	idx := int(float64(n) * math.Pow(r.Float64(), 1.0/(1.0-theta)))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// Perm fills out with a pseudo-random permutation of [0, len(out)).
func (r *Rand) Perm(out []int) {
	for i := range out {
		out[i] = i
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}
