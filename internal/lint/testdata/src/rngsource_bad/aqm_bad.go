// aqm_bad mimics an AQM discipline drawing its marking randomness from
// math/rand: the import is flagged, and the per-queue generator is built
// without deriving its seed from the run configuration, so the marking
// sequence differs run to run.
package rngsource_bad

import mrand "math/rand"

// MarkRED decides a RED-style probabilistic mark with the process-global
// source: the draw is flagged beside the import.
func MarkRED(p float64) bool {
	return mrand.Float64() < p
}

// QueueStream builds the queue's marking stream from the queue index
// instead of a stream split off the run seed.
func QueueStream(queue int) *mrand.Rand {
	return mrand.New(mrand.NewSource(int64(queue)))
}
