package sim

import (
	"fmt"
	"testing"
	"time"
)

// Tests specific to the timer-wheel implementation details: Pending
// accounting under cancellation, handle generation safety across event
// recycling, the closure-free ScheduleArg path, and frame, level-1 and
// overflow boundary crossings.

// Regression test: Pending must not count cancelled-but-unreaped events.
// The historical heap scheduler reported len(queue) and so over-counted
// until the cancelled entry happened to reach the top.
func TestPendingExcludesCancelled(t *testing.T) {
	e := NewEngine()
	h1 := e.Schedule(10, func() {})
	e.Schedule(20, func() {})
	h3 := e.Schedule(30*Millisecond, func() {}) // lives in the overflow heap
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending after 3 schedules = %d, want 3", got)
	}
	h1.Cancel()
	h3.Cancel()
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending after cancelling 2 of 3 = %d, want 1", got)
	}
	h1.Cancel() // double-cancel must not double-decrement
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending after double cancel = %d, want 1", got)
	}
	if n := e.RunAll(); n != 1 {
		t.Fatalf("RunAll executed %d events, want 1", n)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0", got)
	}
}

// Handles carry a generation so a stale handle cannot cancel an unrelated
// event that recycled the same pooled struct.
func TestHandleGenerationSafety(t *testing.T) {
	e := NewEngine()
	h := e.Schedule(5, func() {})
	e.RunAll()
	if h.Cancel() {
		t.Fatal("Cancel succeeded on an already-fired event")
	}
	// The fired event's struct is now on the free list; the next schedule
	// recycles it under a bumped generation.
	fired := false
	e.Schedule(5, func() { fired = true })
	if h.Cancel() {
		t.Fatal("stale handle cancelled a recycled event")
	}
	e.RunAll()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

func TestScheduleArg(t *testing.T) {
	e := NewEngine()
	var got []int
	record := ArgFunc(func(arg any) { got = append(got, *arg.(*int)) })
	vals := []int{3, 1, 2}
	e.ScheduleArgAt(30, record, &vals[0])
	e.ScheduleArgAt(10, record, &vals[1])
	h := e.ScheduleArg(20, record, &vals[2])
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	if !h.Cancel() {
		t.Fatal("Cancel of pending arg event returned false")
	}
	e.RunAll()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("arg events fired %v, want [1 3]", got)
	}
}

// Events beyond the current frame wait in level 1 or the overflow heap and
// must still fire in timestamp order as the wheel reaches their frames.
func TestOverflowOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	at := []Time{
		0,
		Time(8191),                // same slot as 0
		Time(40 * Microsecond),    // the next frame: level 1
		Time(frameWidth) * 255,    // the last frame level 1 reaches
		Time(frameWidth) * 256,    // the first one it does not
		Time(100 * Millisecond),   // deep overflow
		Time(100*Millisecond + 1), // adjacent ps in the same slot
		Time(3 * Time(Second)),    // several window jumps away
	}
	want := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for i, ts := range at {
		i := i
		e.ScheduleAt(ts, func() { order = append(order, i) })
	}
	if n := e.RunAll(); n != uint64(len(at)) {
		t.Fatalf("RunAll executed %d, want %d", n, len(at))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("firing order %v, want %v", order, want)
		}
	}
	if e.Now() != at[len(at)-1] {
		t.Fatalf("Now = %v, want %v", e.Now(), at[len(at)-1])
	}
}

// An empty wheel with only far-future work must jump directly to the
// overflow head's frame rather than scanning empty slots.
func TestWindowJump(t *testing.T) {
	e := NewEngine()
	fired := false
	e.ScheduleAt(Time(7*Time(Second)), func() { fired = true })
	e.RunAll()
	if !fired || e.Now() != Time(7*Time(Second)) {
		t.Fatalf("window jump failed: fired=%v now=%v", fired, e.Now())
	}
}

// A cancelled far-future event still pins the horizon semantics: Run(until)
// leaves now at until while anything — even a cancelled event — is queued
// beyond the horizon, exactly as the heap scheduler behaved. The same from
// level 1 (5 ms) and from overflow (50 ms).
func TestCancelledEventKeepsHorizon(t *testing.T) {
	for _, d := range []Duration{5 * Millisecond, 50 * Millisecond} {
		e := NewEngine()
		h := e.Schedule(d, func() {})
		h.Cancel()
		if n := e.Run(Time(Millisecond)); n != 0 {
			t.Fatalf("%v: Run executed %d, want 0", d, n)
		}
		if e.Now() != Time(Millisecond) {
			t.Fatalf("%v: Now = %v, want %v", d, e.Now(), Time(Millisecond))
		}
		if n := e.RunAll(); n != 0 {
			t.Fatalf("%v: RunAll executed %d, want 0", d, n)
		}
		if e.Now() != Time(Millisecond) {
			t.Fatalf("%v: Now = %v after the drain, want it unmoved", d, e.Now())
		}
	}
}

// A retransmission timer lives in level 1 from arming to cancellation: it
// is on its frame's list, Cancel unlinks it there, the wheel jumps over the
// emptied frame, and the arm/cancel cycle allocates nothing — also at the
// paper's flow count, 65,536 timers armed 500 us ahead, and while a 40 us
// run (a round of ACKs) moves the clock on under them.
func TestLevel1Timer(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	const rto = 500 * Microsecond
	h := e.Schedule(rto, fn)
	if want := numSlots + int(int64(rto)>>frameShift); int(h.ev.where) != want || e.farCnt != 1 {
		t.Fatalf("timer on list %d (farCnt %d), want level-1 list %d", h.ev.where, e.farCnt, want)
	}
	fired := false
	e.Schedule(2*rto, func() { fired = true })
	if !h.Cancel() || h.Armed() || e.farCnt != 1 {
		t.Fatalf("cancel in level 1 failed (farCnt %d)", e.farCnt)
	}
	if at, ok := e.NextEventAt(); !ok || at != Time(2*rto) {
		t.Fatalf("NextEventAt = %v, %v; want the surviving timer", at, ok)
	}
	if n := e.RunAll(); n != 1 || !fired || e.Now() != Time(2*rto) || e.farCnt != 0 || e.wheelCnt != 0 {
		t.Fatalf("drain: ran %d fired=%v now=%v far=%d near=%d", n, fired, e.Now(), e.farCnt, e.wheelCnt)
	}
	h = e.Schedule(rto, fn)
	if a := testing.AllocsPerRun(1000, func() {
		h.Cancel()
		h = e.Schedule(rto, fn)
		e.Run(e.Now().Add(Microsecond)) // the clock moves on under the armed timer
	}); a != 0 {
		t.Errorf("cancel and re-arm of a level-1 timer: %v allocs, want 0", a)
	}
	h.Cancel()

	const timers = 1 << 16
	expired := 0
	onRTO := func() { expired++ }
	rtos := make([]Handle, timers)
	for i := range rtos {
		rtos[i] = e.Schedule(rto, onRTO)
	}
	j := 0
	rearm := func() {
		rtos[j].Cancel()
		rtos[j] = e.Schedule(rto, onRTO)
		j = (j + 1) & (timers - 1)
	}
	if a := testing.AllocsPerRun(timers, rearm); a != 0 {
		t.Errorf("cancel and re-arm of one of %d level-1 timers: %v allocs, want 0", timers, a)
	}
	// Each 40 us run re-arms an eighth of the timers first, so every timer
	// is renewed every 320 us and none fires; the runs cross frame
	// boundaries, deal frames out and fire the tick. All 100 runs are one
	// measurement, so a single allocation anywhere in them shows.
	var tick Func
	tick = func() { e.Schedule(40*Microsecond, tick) }
	tick()
	if a := testing.AllocsPerRun(1, func() {
		for r := 0; r < 100; r++ {
			for k := 0; k < timers/8; k++ {
				rearm()
			}
			e.Run(e.Now().Add(40 * Microsecond))
		}
	}); a != 0 {
		t.Errorf("100 40us runs under %d armed level-1 timers: %v allocs, want 0", timers, a)
	}
	if expired != 0 || e.farCnt < timers {
		t.Fatalf("%d timers expired, %d events in level 1; want 0 and at least the %d timers", expired, e.farCnt, timers)
	}
}

// Run, AdvanceTo and NextEventAt landing exactly on a frame boundary, with
// events on the boundary and one picosecond before it.
func TestFrameBoundary(t *testing.T) {
	const edge = Time(7 * frameWidth)
	e := NewEngine()
	var order []int
	e.ScheduleAt(edge, func() { order = append(order, 1) })
	e.ScheduleAt(edge-1, func() { order = append(order, 0) })
	if n := e.Run(edge - 2); n != 0 || e.Now() != edge-2 {
		t.Fatalf("Run(edge-2) ran %d, now %v", n, e.Now())
	}
	if n := e.Run(edge - 1); n != 1 || e.Now() != edge-1 {
		t.Fatalf("Run(edge-1) ran %d, now %v", n, e.Now())
	}
	if at, ok := e.NextEventAt(); !ok || at != edge {
		t.Fatalf("NextEventAt = %v, %v; want the boundary", at, ok)
	}
	e.AdvanceTo(edge) // up to, not past, the pending event
	e.ScheduleAt(edge, func() { order = append(order, 2) })
	if n := e.Run(edge); n != 2 || e.Now() != edge {
		t.Fatalf("Run(edge) ran %d, now %v", n, e.Now())
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("firing order %v, want [0 1 2]", order)
	}
}

// Timestamps at the top of the range neither wrap a frame index nor get
// lost beyond level 1.
func TestNearForever(t *testing.T) {
	e := NewEngine()
	var order []int
	for i, back := range []Time{Time(300 * frameWidth), Time(frameWidth), 1, 0} {
		i := i
		e.ScheduleAt(Forever-back, func() { order = append(order, i) })
	}
	e.RunAll()
	if len(order) != 4 || order[0] != 0 || order[3] != 3 || e.Now() != Forever {
		t.Fatalf("fired %v, now %v", order, e.Now())
	}
}

// Five events share one wheel slot; cancelling the head, a middle and the
// tail of its list — from outside, or from inside the body of an event that
// fires one slot earlier — leaves exactly the other two to fire, with
// Pending, NextEventAt and Armed right after every unlink.
func TestSlotListCancel(t *testing.T) {
	for _, inside := range []bool{false, true} {
		e := NewEngine()
		const slot = 100
		var fired []int
		hs := make([]Handle, 5)
		for i := range hs {
			i := i
			// Ascending timestamps: hs[0] is the earliest and, slots pushing
			// at the head, the tail of the list.
			hs[i] = e.ScheduleAt(Time(slot<<slotShift)+Time(i), func() { fired = append(fired, i) })
			if hs[i].ev.where != slot {
				t.Fatalf("event %d not in wheel slot %d (where=%d)", i, slot, hs[i].ev.where)
			}
		}
		cancelThree := func() {
			pending := e.Pending()
			for _, i := range []int{2, 4, 0} { // middle, head, tail
				if !hs[i].Cancel() || hs[i].Armed() {
					t.Errorf("inside=%v: cancel of event %d failed", inside, i)
				}
				pending--
				if e.Pending() != pending {
					t.Errorf("inside=%v: Pending = %d after cancelling %d, want %d", inside, e.Pending(), i, pending)
				}
			}
			for _, i := range []int{1, 3} {
				if !hs[i].Armed() {
					t.Errorf("inside=%v: surviving event %d not armed", inside, i)
				}
			}
		}
		if inside {
			e.ScheduleAt(Time((slot-1)<<slotShift), cancelThree)
		} else {
			cancelThree()
			if at, ok := e.NextEventAt(); !ok || at != Time(slot<<slotShift)+1 {
				t.Errorf("NextEventAt = %v, %v; want event 1's time", at, ok)
			}
		}
		e.RunAll()
		if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
			t.Errorf("inside=%v: fired %v, want [1 3]", inside, fired)
		}
		if e.Pending() != 0 || e.wheelCnt != 0 || e.slots[slot] != nil {
			t.Errorf("inside=%v: engine not drained: pending=%d wheelCnt=%d", inside, e.Pending(), e.wheelCnt)
		}
	}
}

// A fresh engine owns no per-slot storage: once its free list holds one
// record, scheduling into wheel slots it has never used — then firing or
// cancelling — allocates nothing, so a short test does not pay per slot it
// touches.
func TestFreshEngineSlotsAllocateNothing(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	e.Schedule(0, fn)
	e.RunAll() // the free list, the ready run and the side heap now have room
	// Each firing moves the clock three slots on, so every event lands in a
	// slot this engine has not used before (until the window wraps).
	if a := testing.AllocsPerRun(2000, func() {
		e.Schedule(3*slotWidth, fn)
		e.RunAll()
	}); a != 0 {
		t.Errorf("Schedule then fire on a fresh engine: %v allocs, want 0", a)
	}
	e = NewEngine()
	e.Schedule(0, fn)
	e.RunAll()
	i := 0
	if a := testing.AllocsPerRun(1000, func() {
		i++
		h := e.Schedule(Duration(3*i)*slotWidth, fn) // 1000 different slots, all inside the frame
		if h.ev.where < 0 {
			t.Fatal("event not in a wheel slot")
		}
		h.Cancel()
	}); a != 0 {
		t.Errorf("Schedule then Cancel on a fresh engine: %v allocs, want 0", a)
	}
	// What every short test pays for its event core: the only allocations
	// are the engine, one slab of event records, the one array the ready
	// run and side heap start in, and runFreshEngine's own gap table and
	// tick.
	var ran uint64
	if a := testing.AllocsPerRun(20, func() { ran = runFreshEngine() }); a > 16 {
		t.Errorf("fresh engine run to 250us: %v allocs, want <= 16", a)
	}
	if ran < 10_000 {
		t.Fatalf("fresh engine ran %d events to 250us, want >= 10000", ran)
	}
}

// A cold engine carves its event records from slabs of 8, 16, 32 and then
// 64, so scheduling 1,000 events costs the engine and one allocation a
// slab, not one an event; a zero Engine grows the same way. A Handle kept
// past its event still fails to Cancel once the slab record is reused.
func TestEngineGrowsEventsBySlab(t *testing.T) {
	const n = 1000
	fn := func() {}
	schedule := func(e *Engine) {
		for i := 1; i <= n; i++ {
			e.Schedule(Duration(i)*slotWidth, fn) // wheel slots: no container storage
		}
	}
	if a, most := testing.AllocsPerRun(5, func() { schedule(NewEngine()) }), float64((n+63)/64+3); a > most {
		t.Errorf("a cold engine scheduling %d events: %v allocs, want <= %v", n, a, most)
	}
	var e Engine
	schedule(&e)
	if e.Pending() != n || e.slab != maxSlab {
		t.Fatalf("zero Engine: %d pending, last slab %d; want %d, %d", e.Pending(), e.slab, n, maxSlab)
	}
	if got := e.RunAll(); got != n {
		t.Fatalf("zero Engine ran %d events, want %d", got, n)
	}

	stale := e.Schedule(slotWidth, fn)
	if !stale.Cancel() {
		t.Fatal("Cancel of a pending event reported false")
	}
	fresh := e.Schedule(slotWidth, fn)
	if fresh.ev != stale.ev {
		t.Fatal("the free list did not hand back the cancelled record")
	}
	if stale.Armed() || stale.Cancel() {
		t.Fatal("a stale Handle into a reused slab record is armed or cancels it")
	}
	if !fresh.Armed() || e.Pending() != 1 {
		t.Fatalf("the reused record's own Handle: armed %v, %d pending", fresh.Armed(), e.Pending())
	}
	e.RunAll()
	if fresh.Cancel() {
		t.Fatal("Cancel of a fired event reported true")
	}
}

// runFreshEngine builds a new engine, runs four self-rescheduling chains
// with ~100 ns gaps (over 10,000 events, walking the whole wheel seven
// times) to 250 us, drops it and reports the events it ran.
func runFreshEngine() uint64 {
	e := NewEngine()
	gaps := [4]Duration{97 * Nanosecond, 98 * Nanosecond, 99 * Nanosecond, 100 * Nanosecond}
	var tick ArgFunc
	tick = func(gap any) { e.ScheduleArg(*gap.(*Duration), tick, gap) }
	for c := range gaps {
		e.ScheduleArg(0, tick, &gaps[c])
	}
	return e.Run(Time(250 * Microsecond))
}

// One slot holding 1<<17 events, scheduled latest first, fires in
// (timestamp, schedule order) on activation. Activation sorts the slot
// once; an insertion sort of that many would take minutes, so the run must
// finish well inside two seconds (~50 ms measured, with -race a few times
// that).
func TestCrowdedSlotFiresInOrder(t *testing.T) {
	const n = 1 << 17
	e := NewEngine()
	base := Time(7 << slotShift)
	type fired struct {
		at Time
		i  int
	}
	got := make([]fired, 0, n)
	record := ArgFunc(func(arg any) { got = append(got, fired{e.Now(), arg.(int)}) })
	for i := 0; i < n; i++ {
		// 16 events at each of the slot's 8192 timestamps, descending.
		e.ScheduleArgAt(base+Time(slotWidth)-1-Time(i>>4), record, i)
	}
	start := time.Now()
	if ran := e.RunAll(); ran != n {
		t.Fatalf("ran %d events, want %d", ran, n)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("firing one slot of %d events took %v, want < 2s", n, took)
	}
	for k := 1; k < n; k++ {
		a, b := got[k-1], got[k]
		if a.at > b.at || (a.at == b.at && a.i > b.i) {
			t.Fatalf("firing %d: event %d at %v after event %d at %v", k, b.i, b.at, a.i, a.at)
		}
	}
}

// Inside an activated slot, a cancelled run entry is skipped, and events
// scheduled into the slot after it was sorted (the side heap) fire among
// the run's entries in (timestamp, sequence) order.
func TestActivatedSlotCancelAndPush(t *testing.T) {
	e := NewEngine()
	base := Time(3 << slotShift)
	var order []string
	mark := func(s string) Func { return func() { order = append(order, s) } }
	var victim Handle
	e.ScheduleAt(base+10, func() {
		order = append(order, "a")
		if victim.ev.where != locRun {
			t.Errorf("victim in container %d, want the run", victim.ev.where)
		}
		if !victim.Cancel() || victim.Armed() {
			t.Error("cancel of a ready run entry failed")
		}
		e.ScheduleAt(base+10, mark("same-time push")) // after c, which has the same timestamp
		h := e.ScheduleAt(base+20, mark("push"))      // between b and d
		if h.ev.where != locSide {
			t.Errorf("push into the activated slot in container %d, want the side heap", h.ev.where)
		}
	})
	e.ScheduleAt(base+10, mark("c"))
	e.ScheduleAt(base+15, mark("b"))
	victim = e.ScheduleAt(base+17, mark("cancelled"))
	e.ScheduleAt(base+30, mark("d"))
	e.RunAll()
	want := "[a c same-time push b push d]"
	if got := fmt.Sprint(order); got != want {
		t.Errorf("fired %s, want %s", got, want)
	}
	if e.Pending() != 0 || len(e.side) != 0 {
		t.Errorf("not drained: pending %d, side heap %d", e.Pending(), len(e.side))
	}
}
