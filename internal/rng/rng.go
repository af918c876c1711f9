// Package rng provides deterministic, splittable pseudo-random streams.
//
// The paper's lower bounds hold for public-coin protocols: every coin flipped
// by every node is visible to both Alice and Bob. We model public coins as a
// pure function of (seed, node, round, draw index), so any party holding the
// seed can regenerate any node's coin tape without communicating. The same
// property makes every re-execution of a seeded simulation bit-identical.
//
// The generator is SplitMix64 (Steele, Lea, Flood 2014), chosen because each
// stream is derived by pure arithmetic on its key — there is no shared state
// to synchronize across goroutines.
package rng

import "math"

const (
	gamma  = 0x9E3779B97F4A7C15 // golden-ratio increment of SplitMix64
	mixK0  = 0xBF58476D1CE4E5B9
	mixK1  = 0x94D049BB133111EB
	keyMix = 0xD6E8FEB86659FD93 // finalizer used when combining key parts
)

// mix64 is the SplitMix64 finalizer: a bijective scrambler on 64-bit words.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * mixK0
	z = (z ^ (z >> 27)) * mixK1
	return z ^ (z >> 31)
}

// combine folds word w into key k, giving independent streams for distinct
// key tuples.
func combine(k, w uint64) uint64 {
	return mix64((k+gamma)^(w*keyMix)) + gamma
}

// Source is a deterministic random stream. The zero value is a valid stream
// seeded with 0. Source is not safe for concurrent use; derive one Source per
// goroutine with Split or At.
type Source struct {
	state uint64
}

// New returns a stream seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: mix64(seed)}
}

// Split derives an independent child stream labeled by words. The parent is
// unchanged: Split is a pure function of (parent seed, words), which is what
// allows Alice and Bob to regenerate any node's coins from the public seed.
// Split is small enough to inline, so a child that does not outlive its
// caller stays on the caller's stack.
func (s *Source) Split(words ...uint64) *Source {
	c := s.split(words)
	return &c
}

// split is Split by value.
func (s *Source) split(words []uint64) Source {
	k := s.state
	for _, w := range words {
		k = combine(k, w)
	}
	return Source{state: mix64(k)}
}

// At is shorthand for the per-node per-round stream used by protocol
// machines: stream (node, round) of this source.
func (s *Source) At(node, round int) *Source {
	return s.Split(uint64(node)+1, uint64(round)+1)
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += gamma
	return mix64(s.state)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		//lint:allow panicfree mirrors math/rand.Intn's contract; a non-positive bound is a programming error
		panic("rng: Intn with non-positive n")
	}
	// Rejection sampling to avoid modulo bias: accept v below
	// limit = MaxUint64 - MaxUint64%n. Every v <= MaxUint64-n is below it,
	// so limit (a second division) is computed only for the top n values.
	max := uint64(n)
	for {
		v := s.Uint64()
		if v <= math.MaxUint64-max || v < math.MaxUint64-math.MaxUint64%max {
			return int(v % max)
		}
	}
}

// Float64 returns a uniform float in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (s *Source) Bool() bool { return s.Uint64()&1 == 1 }

// Prob returns true with probability p.
func (s *Source) Prob(p float64) bool { return s.Float64() < p }

// Exp returns an exponentially distributed variate with rate 1, used by the
// Mosk-Aoyama–Shah counting subroutine. The value is strictly positive.
func (s *Source) Exp() float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -math.Log(u)
}

// Perm returns a uniform random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	s.PermInto(p)
	return p
}

// PermInto fills p with a uniform random permutation of [0, len(p)),
// making exactly the draws Perm(len(p)) makes.
func (s *Source) PermInto(p []int) {
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}
