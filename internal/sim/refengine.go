package sim

import (
	"container/heap"
	"fmt"
)

// RefEngine is the retired binary-heap scheduler, kept as an executable
// reference implementation of the determinism contract: events fire in
// (timestamp, schedule-sequence) order, the clock advances to the horizon
// while anything is still queued beyond it, and cancellation is lazy.
//
// CheckAgainstRef drives a RefEngine and a timer-wheel Engine with identical
// seeded schedule/cancel/run sequences and demands identical firing orders
// and clocks, and the BenchmarkRefEngine* twins in engine_bench_test.go
// measure it as the "before" of each engine mix. It is not used by any model
// code.
type RefEngine struct {
	now      Time
	queue    refHeap
	seq      uint64
	stopped  bool
	executed uint64
}

// refEvent is a RefEngine queue entry.
type refEvent struct {
	at     Time
	seq    uint64
	fn     Func
	cancel bool
}

// refHeap orders events by (time, sequence).
type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// NewRefEngine returns a reference engine with the clock at time zero.
func NewRefEngine() *RefEngine {
	return &RefEngine{}
}

// Now returns the current simulation time.
func (e *RefEngine) Now() Time { return e.now }

// Executed reports how many events have fired so far.
func (e *RefEngine) Executed() uint64 { return e.executed }

// Pending reports how many events are scheduled and not cancelled. (The
// historical heap implementation counted cancelled-but-unreaped events too;
// the reference reproduces the fixed semantics so differential tests can
// compare Pending directly.)
func (e *RefEngine) Pending() int {
	n := 0
	for _, ev := range e.queue {
		if !ev.cancel && ev.fn != nil {
			n++
		}
	}
	return n
}

// RefHandle identifies a RefEngine event so that it can be cancelled.
type RefHandle struct{ ev *refEvent }

// Cancel prevents the event from running, reporting whether it was still
// pending.
func (h RefHandle) Cancel() bool {
	if h.ev == nil || h.ev.cancel || h.ev.fn == nil {
		return false
	}
	h.ev.cancel = true
	return true
}

// Armed reports whether the event is still pending.
func (h RefHandle) Armed() bool {
	return h.ev != nil && !h.ev.cancel && h.ev.fn != nil
}

// NextEventAt reports the timestamp of the earliest pending event, and
// whether one exists, without reaping anything.
func (e *RefEngine) NextEventAt() (Time, bool) {
	at, ok := Forever, false
	for _, ev := range e.queue {
		if !ev.cancel && ev.fn != nil && (!ok || ev.at < at) {
			at, ok = ev.at, true
		}
	}
	if !ok {
		return 0, false
	}
	return at, true
}

// ScheduleAt enqueues fn to run at the absolute timestamp at.
func (e *RefEngine) ScheduleAt(at Time, fn Func) RefHandle {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	ev := &refEvent{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return RefHandle{ev}
}

// Schedule enqueues fn to run after delay d.
func (e *RefEngine) Schedule(d Duration, fn Func) RefHandle {
	return e.ScheduleAt(e.now.Add(d), fn)
}

// Stop makes the current Run call return after the in-flight event.
func (e *RefEngine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the queue is empty, the
// horizon is passed, or Stop is called.
func (e *RefEngine) Run(until Time) uint64 {
	e.stopped = false
	start := e.executed
	for len(e.queue) > 0 && !e.stopped {
		ev := e.queue[0]
		if ev.at > until {
			e.now = until
			break
		}
		heap.Pop(&e.queue)
		if ev.cancel {
			continue
		}
		e.now = ev.at
		fn := ev.fn
		ev.fn = nil
		fn()
		e.executed++
	}
	return e.executed - start
}

// RunAll executes events until the queue drains or Stop is called.
func (e *RefEngine) RunAll() uint64 { return e.Run(Forever) }

// AdvanceTo moves the clock forward to t without running anything, reaping
// the cancelled events it passes. Advancing past a pending event, or
// backward, panics.
func (e *RefEngine) AdvanceTo(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: AdvanceTo %v before now %v", t, e.now))
	}
	for len(e.queue) > 0 && e.queue[0].cancel && e.queue[0].at <= t {
		heap.Pop(&e.queue)
	}
	if len(e.queue) > 0 && e.queue[0].at < t {
		panic(fmt.Sprintf("sim: AdvanceTo %v past pending event at %v", t, e.queue[0].at))
	}
	e.now = t
}

// Step executes the single next event, if any, and reports whether one ran.
func (e *RefEngine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*refEvent)
		if ev.cancel {
			continue
		}
		e.now = ev.at
		fn := ev.fn
		ev.fn = nil
		fn()
		e.executed++
		return true
	}
	return false
}
