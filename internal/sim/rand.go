package sim

import "math"

// Rand is a small, fast, deterministic PRNG (splitmix64). Every stochastic
// Marlin component draws from a seeded Rand so that whole-system runs are
// reproducible bit-for-bit from the configuration seed.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. Distinct seeds give
// independent-looking streams; a zero seed is valid.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed}
}

// MakeRand returns the generator NewRand(seed) points to, as a value, for a
// component that holds its stream in place instead of behind a pointer.
func MakeRand(seed uint64) Rand {
	return Rand{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed duration with the given mean.
// It is the inter-arrival primitive for Poisson workload generators.
func (r *Rand) Exp(mean Duration) Duration {
	u := r.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return Duration(-math.Log(u) * float64(mean))
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Split derives an independent child generator; useful for giving each
// component its own stream without cross-component coupling.
func (r *Rand) Split() *Rand {
	return NewRand(r.Uint64())
}

// DeriveRand builds a partition-local stream from (seed, partition,
// purpose) without consuming draws from any other stream. Sharded runs use
// it so that a partition's generators are a pure function of the
// configuration seed and the partition's identity: adding or removing
// partitions elsewhere in the topology cannot perturb this partition's
// draws, and no stream is ever shared across shards.
func DeriveRand(seed, partition uint64, purpose string) *Rand {
	// FNV-1a over the purpose tag, folded with distinct odd constants for
	// each identity component, then one splitmix64 finalization round so
	// nearby (seed, partition) pairs land in unrelated states.
	h := uint64(14695981039346656037)
	for i := 0; i < len(purpose); i++ {
		h ^= uint64(purpose[i])
		h *= 1099511628211
	}
	z := seed ^ h*0x9e3779b97f4a7c15 ^ (partition+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return NewRand(z ^ (z >> 31))
}
