// Package detflow_bad exercises the detflow check: goroutines and selects
// in model code (including one reachable from an engine callback). Its
// map-iteration-order dataflow escaping a range loop is maporder's.
package detflow_bad

func noop() {}

// Spawn runs model work on a host goroutine.
func Spawn(work func()) {
	go work()
}

// Pick returns whichever channel the host scheduler made ready first.
func Pick(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

type fakeEngine struct{}

func (fakeEngine) Schedule(d int64, fn func()) {}

// Register schedules Tick as an engine callback, making everything Tick
// calls reachable from the event loop.
func Register(e fakeEngine) {
	e.Schedule(0, Tick)
}

// Tick is an engine callback.
func Tick() {
	spawnHelper()
}

// spawnHelper is reachable from Tick; its goroutine poisons replay.
func spawnHelper() {
	go noop()
}

// LastWriter keeps whichever entry iteration visited last and reads it
// after the loop.
func LastWriter(m map[string]int) int {
	best := 0
	for _, v := range m {
		best = v
	}
	return best
}

// FloatAccum sums floats in map iteration order via plain assignment, the
// spelling maporder's compound-assign pattern does not see.
func FloatAccum(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum = sum + v
	}
	return sum
}
