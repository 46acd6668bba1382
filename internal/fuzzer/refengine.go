package fuzzer

import "marlin/internal/sim"

// checkRefEngine is the fuzzer's sampled re-verification of the determinism
// contract the scheduler swap relies on: sim.CheckAgainstRef drives the
// production timer-wheel engine and the reference binary-heap engine
// through an identical seeded stream of schedule/cancel/run operations —
// same-timestamp events, children scheduled from inside handlers, bursts
// sharing one wheel slot cancelled from outside and from inside a firing
// body — against op streams the fixed differential-test seeds never visited.
func checkRefEngine(seed uint64) *Violation {
	if err := sim.CheckAgainstRef(seed, 300); err != nil {
		return &Violation{OracleRefEngine, err.Error()}
	}
	return nil
}
