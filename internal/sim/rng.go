package sim

import (
	"hash/fnv"
	"math/rand"
)

// RNG is a deterministic random number stream. Distinct model components
// should draw from distinct streams (via Stream) so that adding randomness in
// one component does not perturb another — a property the reproducibility
// tests rely on.
type RNG struct {
	src *rand.Rand
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{src: rand.New(rand.NewSource(seed))}
}

// Stream derives an independent child stream identified by name. The same
// (seed, name) pair always yields the same stream.
func (r *RNG) Stream(name string) *RNG {
	h := fnv.New64a()
	// fnv.Write never fails.
	_, _ = h.Write([]byte(name))
	return NewRNG(r.src.Int63() ^ int64(h.Sum64()))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand.
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// ExpFloat64 returns an exponentially distributed value with mean 1.
func (r *RNG) ExpFloat64() float64 { return r.src.ExpFloat64() }

// Bernoulli reports true with probability p (clamped to [0, 1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}
