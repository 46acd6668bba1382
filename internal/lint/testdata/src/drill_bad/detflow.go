package drill_bad

import "marlin/internal/sim"

// RacedCoin is D3: a loss-burst coin comes from whichever of two goroutines
// answers first, and both draw from one stream. The tests pass it; only the
// race detector, where a test happens to run the path, sees it too.
func RacedCoin(rng *sim.Rand, prob float64) bool {
	coin := make(chan float64, 2)
	go func() { coin <- rng.Float64() }()
	go func() { coin <- rng.Float64() }()
	u := <-coin
	<-coin
	return u < prob
}
