package drill_bad

import (
	"math/rand"

	"marlin/internal/sim"
)

// SizeStream is R7: an example seeds its closed-loop flow sizes from the
// global math/rand source, so its printed results change from run to run.
func SizeStream() *sim.Rand {
	return sim.NewRand(rand.Uint64())
}
