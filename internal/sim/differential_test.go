package sim

import (
	"testing"
	"testing/quick"
)

// The differential tests run CheckAgainstRef: the timer-wheel Engine and the
// reference binary-heap RefEngine driven through identical schedule/cancel/
// run sequences, with identical firing orders, clocks, executed counts,
// pending counts, next-event times and handle states demanded after every
// operation.

func differentialRun(t *testing.T, seed uint64) bool {
	t.Helper()
	if err := CheckAgainstRef(seed, 400); err != nil {
		t.Errorf("seed %d: %v", seed, err)
		return false
	}
	return true
}

func TestQuickDifferentialWheelVsHeap(t *testing.T) {
	f := func(seed uint64) bool { return differentialRun(t, seed) }
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// A handful of fixed seeds keep the corpus stable across quick's own
// generator changes.
func TestDifferentialFixedSeeds(t *testing.T) {
	for _, seed := range []uint64{0, 1, 2, 42, 0xdeadbeef, 1 << 40} {
		if !differentialRun(t, seed) {
			t.Fatalf("differential run failed for seed %d", seed)
		}
	}
}
