// Package drill_bad holds, in fixture form, the mutant of real code that
// only its check catches in the mutation drill (DESIGN.md, "Static
// analysis"): the tests, the race detector and the fuzz smoke all pass it.
package drill_bad

import (
	"time"

	"marlin/internal/sim"
)

// LossCoin is W2: a loss-burst fault mixes the host clock into its seeded
// coin, so the drop pattern changes from run to run.
func LossCoin(rng *sim.Rand, prob float64) bool {
	return (rng.Float64()+float64(time.Now().Nanosecond())/1e9)/2 < prob
}
