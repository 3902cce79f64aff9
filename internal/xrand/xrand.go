// Package xrand provides the deterministic pseudo-randomness used throughout
// the reproduction. Every experiment in the repository is a pure function of
// explicit seeds, so results are bit-for-bit reproducible across runs and
// machines.
//
// Two primitives are provided: a splitmix64-based stream RNG (Rand) for
// sequential draws, and a stateless mixing hash (Mix, Uniform01) used for
// per-(entity, entity) Bernoulli draws where storing state per pair would be
// prohibitive — e.g. "is user u a member of attribute a?" is answered by
// hashing (seed, a, u) rather than by storing a bit.
package xrand

import "math"

// mix64 is the splitmix64 finalizer, a high-quality 64-bit mixing function.
// It is bijective, so distinct inputs never collide.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix hashes an arbitrary number of 64-bit words into a single well-mixed
// 64-bit value. It is the basis for all stateless draws.
func Mix(words ...uint64) uint64 {
	h := uint64(0x51_7c_c1_b7_27_22_0a_95)
	for _, w := range words {
		h = mix64(h ^ w)
	}
	return h
}

// Prefix is Mix's state after a fixed list of leading words. Mix chains one
// mix64 round per word, so draws that share their leading words (a seed, a
// domain, an entity id) can hash those once and pay one round per draw:
// MixPrefix(a, b).Then(c) == Mix(a, b, c) for any words a, b and c.
type Prefix struct{ h uint64 }

// MixPrefix returns the prefix over words; MixPrefix() is the empty prefix.
func MixPrefix(words ...uint64) Prefix { return Prefix{Mix(words...)} }

// Then returns Mix over the prefix's words followed by w.
func (p Prefix) Then(w uint64) uint64 { return mix64(p.h ^ w) }

// Bernoulli is Bernoulli(q, words..., w) for the prefix's words: the same
// coin flip, with the same outcome for q <= 0 and q >= 1.
func (p Prefix) Bernoulli(q float64, w uint64) bool {
	if q <= 0 {
		return false
	}
	if q >= 1 {
		return true
	}
	return Uniform01(p.Then(w)) < q
}

// Uniform01 maps a hash value to a float64 uniformly distributed in [0, 1).
func Uniform01(h uint64) float64 {
	// Use the top 53 bits for a uniformly distributed mantissa.
	return float64(h>>11) / (1 << 53)
}

// Bernoulli reports a deterministic coin flip with probability p, derived
// from the given hash words. The same words always yield the same outcome.
func Bernoulli(p float64, words ...uint64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return Uniform01(Mix(words...)) < p
}

// Rand is a small, fast, deterministic RNG (splitmix64 stream). The zero
// value is a valid generator seeded with 0.
type Rand struct {
	state uint64
}

// New returns a Rand seeded with the given seed.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection-free bound is overkill here; modulo
	// bias at n << 2^64 is negligible for our catalog-sized draws, but we
	// still use the unbiased widening multiply for cleanliness.
	return int(r.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, bound) using Lemire's
// widening-multiply method with rejection.
func (r *Rand) boundedUint64(bound uint64) uint64 {
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	ahi, alo := a>>32, a&mask
	bhi, blo := b>>32, b&mask
	t := ahi*blo + (alo*blo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += alo * bhi
	hi = ahi*bhi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return Uniform01(r.Uint64())
}

// NormFloat64 returns a standard-normally-distributed float64 using the
// Marsaglia polar method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// LogUniform returns a value log-uniformly distributed in [lo, hi].
// It panics if lo <= 0 or hi < lo.
func (r *Rand) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi < lo {
		panic("xrand: LogUniform requires 0 < lo <= hi")
	}
	return math.Exp(math.Log(lo) + r.Float64()*(math.Log(hi)-math.Log(lo)))
}

// Perm returns a pseudo-random permutation of [0, n).
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

// Sample returns k distinct indices drawn uniformly from [0, n) in random
// order. If k >= n it returns a full permutation. It panics if k < 0.
//
// The draw is a partial Fisher–Yates shuffle of the identity over [0, n),
// kept in O(k) time and memory: the result holds positions [0, k), and
// moved records the values swapped out to positions k and above, which are
// otherwise their own index.
func (r *Rand) Sample(n, k int) []int {
	if k < 0 {
		panic("xrand: Sample called with k < 0")
	}
	if k >= n {
		return r.Perm(n)
	}
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	var moved map[int]int
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		if j < k {
			out[i], out[j] = out[j], out[i]
			continue
		}
		v, ok := moved[j]
		if !ok {
			v = j
		}
		if moved == nil {
			moved = make(map[int]int, k)
		}
		moved[j] = out[i]
		out[i] = v
	}
	return out
}

// Shuffle pseudo-randomly permutes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// HashString folds a string into a 64-bit value suitable for seeding.
func HashString(s string) uint64 {
	// FNV-1a 64-bit, then mixed for avalanche.
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}
