package fleet

import (
	"fmt"

	"marlin/internal/sim"
)

// DeriveSeed deterministically derives an independent per-job seed from a
// campaign base seed and the job's ID: FNV-1a over the ID, mixed with the
// base through the same splitmix64 finalizer behind sim.Rand (the
// campaign-level analogue of Rand.Split). The derivation depends only on
// (base, id) — never on worker count or scheduling — which is what makes
// replicated campaigns reproducible at any -j.
func DeriveSeed(base uint64, id string) uint64 {
	return sim.NewRand(sim.NewRand(base).Uint64() ^ fnv64(id)).Uint64()
}

// fnv64 is FNV-1a over the id bytes.
func fnv64(id string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * prime
	}
	return h
}

// Replicate expands one logical job into n seed replicates. Replicate 0
// runs at base itself; replicate k >= 1 runs at DeriveSeed(base,
// "<id>/rep<k>"), so the set of seeds is a pure function of (id, n, base).
// Each replicate's ID is "<id>/rep<k>"; a lone replicate keeps id.
func Replicate(id string, n int, base uint64, run func(seed uint64) (*Output, error)) []Job {
	if n == 1 {
		return []Job{{ID: id, Run: func() (*Output, error) { return run(base) }}}
	}
	jobs := make([]Job, n)
	for k := 0; k < n; k++ {
		repID := fmt.Sprintf("%s/rep%d", id, k)
		seed := base
		if k > 0 {
			seed = DeriveSeed(base, repID)
		}
		jobs[k] = Job{ID: repID, Run: func() (*Output, error) { return run(seed) }}
	}
	return jobs
}
