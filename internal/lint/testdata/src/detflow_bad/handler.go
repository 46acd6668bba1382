package detflow_bad

import "marlin/internal/sim"

// timer is an engine handler of its own type: passed as a sim.Handler, its
// Fire method runs as an engine callback.
type timer struct{ fired int }

// Fire spawns a goroutine from inside an engine callback.
func (t *timer) Fire(any) {
	t.fired++
	go noop()
}

// Arm schedules the timer.
func Arm(e *sim.Engine, t *timer) {
	e.ScheduleFireAt(0, t, nil)
}

// idle has a Fire method but is never passed as a Handler: its goroutine
// is model code, not reachable from the engine.
type idle struct{}

// Fire is an ordinary method here.
func (idle) Fire(any) {
	go noop()
}
