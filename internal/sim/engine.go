package sim

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// Func is the body of a scheduled event. It runs exactly once at its
// scheduled timestamp with the engine clock already advanced to that time.
type Func func()

// ArgFunc is the body of a scheduled event that carries one argument. Hot
// paths that would otherwise close over a per-packet value (allocating one
// closure per packet) preallocate a single ArgFunc and pass the value
// through ScheduleArg instead.
type ArgFunc func(arg any)

// Handler is what an event runs: Fire(arg) with the argument it was
// scheduled with. Func and ArgFunc implement it, and a func value goes into
// the interface without allocating. A component that owns its state can
// implement it on a pointer type of its own instead (a typed conversion of
// the same struct for each kind of event it schedules), so it needs no
// closure at all; ScheduleFireAt schedules one.
type Handler interface {
	Fire(arg any)
}

// Fire calls f; the argument is nil.
func (f Func) Fire(any) { f() }

// Fire calls f(arg).
func (f ArgFunc) Fire(arg any) { f(arg) }

// Location sentinels for event.where. Non-negative values index
// Engine.slots: a level-0 slot below numSlots, a level-1 frame list from
// numSlots up.
const (
	locFree     = -1
	locRun      = -2
	locOverflow = -3
	locSide     = -4
)

// event is a queue entry. seq breaks ties so that events scheduled earlier
// at the same timestamp fire first, keeping runs deterministic.
//
// Events are typed records pooled by their owner: the engine recycles fired
// and cancelled events through an intrusive free list (safe because the
// engine is single-goroutine by construction), so steady-state scheduling
// allocates nothing. gen guards stale Handles against recycled records.
// where says which container holds the event — the sorted ready run or a
// heap, where idx is its position, or a wheel list (a level-0 slot or a
// level-1 frame), where prev/next thread it into a doubly-linked list — so
// Cancel removes it in O(1) (the run, where it leaves a tombstone, and the
// lists) or O(log n) (heaps) instead of leaving it to fire. A list is
// nothing but its head pointer: a fresh engine owns no per-list storage to
// grow.
type event struct {
	at  Time
	seq uint64
	h   Handler
	arg any
	eng *Engine
	gen uint32
	// where is locRun, locSide, locOverflow, locFree, or an index into
	// Engine.slots; idx is the position within the run or a heap slice.
	where int32
	idx   int32
	// prev/next link a wheel list; next alone links the free list.
	prev, next *event
}

// eventBefore is the firing order: (timestamp, schedule sequence).
func eventBefore(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// compareEvents is eventBefore as a three-way comparison, for slices.SortFunc.
func compareEvents(a, b *event) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// initRun and initSide are the run's and the side heap's first capacities.
const (
	initRun  = 16
	initSide = 8
)

// insertionMax is the largest slot sortRun orders by insertion sort; a
// more crowded slot goes to slices.SortFunc, so even one slot holding every
// event of a run sorts in O(n log n). A busy tester's slot holds about ten.
const insertionMax = 16

// sortRun orders an activated slot's events by (timestamp, sequence).
func sortRun(run []*event) {
	if len(run) > insertionMax {
		slices.SortFunc(run, compareEvents)
		return
	}
	for i := 1; i < len(run); i++ {
		ev := run[i]
		j := i
		for ; j > 0 && eventBefore(ev, run[j-1]); j-- {
			run[j] = run[j-1]
		}
		run[j] = ev
	}
}

// eventHeap is a hand-rolled binary min-heap ordered by eventBefore that
// keeps each event's idx in sync with its slice position so remove works
// from a Handle. It backs the side heap of events scheduled into the
// activated region and the far-future overflow queue. (container/heap's
// interface dispatch costs ~2 dynamic calls per sift level; these direct
// slice loops keep the constant factor down.)
type eventHeap []*event

func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !eventBefore(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].idx = int32(i)
		i = parent
	}
	h[i] = ev
	ev.idx = int32(i)
}

func (h eventHeap) down(i int) {
	n := len(h)
	ev := h[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && eventBefore(h[r], h[child]) {
			child = r
		}
		if !eventBefore(h[child], ev) {
			break
		}
		h[i] = h[child]
		h[i].idx = int32(i)
		i = child
	}
	h[i] = ev
	ev.idx = int32(i)
}

func (h *eventHeap) push(ev *event) {
	i := len(*h)
	ev.idx = int32(i)
	*h = append(*h, ev)
	(*h).up(i)
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() *event {
	s := *h
	n := len(s) - 1
	root := s[0]
	s[0] = s[n]
	s[n] = nil
	*h = s[:n]
	if n > 0 {
		s[0].idx = 0
		(*h).down(0)
	}
	return root
}

// remove deletes the event at position i, preserving the heap invariant.
func (h *eventHeap) remove(i int) {
	s := *h
	n := len(s) - 1
	moved := s[n]
	s[n] = nil
	*h = s[:n]
	if i == n {
		return
	}
	s[i] = moved
	moved.idx = int32(i)
	(*h).down(i)
	(*h).up(i)
}

// Timer-wheel geometry. Time is cut into slots of slotWidth picoseconds and
// frames of numSlots slots; the wheel has two levels:
//
//   - level 0 is the current frame, one list per slot. The slots before
//     baseSlot have been activated: events that land there go straight to
//     the side heap, the rest to slot (at>>slotShift)&slotMask;
//   - level 1 holds the next numFrames-1 frames, one list per frame. When
//     level 0 runs empty the wheel moves to the next frame that holds
//     anything and deals that frame's list out into the slots, so an event
//     is moved at most once, and is not touched at all if it is cancelled
//     first — which is what retransmission timers do;
//   - events beyond level 1 wait in an overflow heap until the wheel reaches
//     their frame.
//
// slotWidth is 8192 ps (~8 ns): finer than the smallest serialization gap
// the models schedule at (5120 ps for a 64-byte control frame at 100 Gbps),
// so steady-state traffic spreads across slots instead of piling into one.
// A frame spans 4096 slots = ~33.6 us, which covers serialization,
// propagation, CNP pacing, and RX/TX timer horizons; level 1 reaches 255
// frames = ~8.6 ms, past every RTO and CC timer, so only experiment
// horizons and idle-flow arrivals take the overflow path.
const (
	slotShift   = 13
	slotWidth   = Duration(1) << slotShift
	slotBits    = 12
	numSlots    = 1 << slotBits
	slotMask    = numSlots - 1
	frameShift  = slotShift + slotBits
	frameBits   = 8
	numFrames   = 1 << frameBits
	frameMask   = numFrames - 1
	numLists    = numSlots + numFrames
	slotWords   = numSlots / 64
	frameWords  = numFrames / 64
	bitmapWords = slotWords + frameWords
)

// Engine is a single-threaded discrete-event simulator.
//
// Engines are not safe for concurrent use; all Marlin components run within
// one engine goroutine by construction.
//
// The scheduler is a two-level timer wheel rather than a global binary
// heap: O(1) insert and Cancel for the next ~8.6 ms, with per-activation
// cost proportional to the (small) population of one 8 ns slot. The wheel
// only decides when an event becomes ready. Activating a slot sorts its
// events once by (timestamp, sequence) into the ready run, which fires by
// index; the few events scheduled into the already-activated region after
// that wait in a small side heap, and the next event is the earlier of the
// run's head and the side heap's top. Either way equal-time events fire in
// schedule order, and the determinism contract is identical to the heap
// implementation (RefEngine keeps that implementation alive for
// differential testing).
type Engine struct {
	now     Time
	seq     uint64
	stopped bool
	// executed counts events that have fired, for diagnostics and as a
	// cheap progress measure in benchmarks.
	executed uint64
	// live counts scheduled events that have neither fired nor been
	// cancelled; Pending reports it.
	live int
	// maxDeadAt is the high-water timestamp of cancelled events the heap
	// implementation would still be holding. Cancel removes events
	// immediately, but the old scheduler reaped them lazily, which made a
	// cancelled event beyond Run's horizon pin the clock at `until`. The
	// watermark reproduces exactly that: Run(until) with nothing live left
	// still sets now=until while maxDeadAt > until, and the watermark is
	// dropped once a run passes it (when the old engine would have reaped).
	maxDeadAt Time

	// run holds the last activated slot's events sorted by (at, seq); the
	// entries before pos have fired, and a cancelled entry is a nil
	// tombstone. side is the heap of events scheduled into the activated
	// region (at earlier than baseSlot's start) after that slot was sorted.
	// Together they hold every event of the activated region, and once
	// prime() has run the globally earliest pending event is the earlier of
	// run[pos] and side's top.
	run  []*event
	pos  int
	side eventHeap
	// frame is the absolute frame index (at>>frameShift) level 0
	// covers, and baseSlot the absolute slot index (at>>slotShift) of the
	// first slot not yet activated: frame's first slot <= baseSlot <= the
	// next frame's first slot. Both only move forward.
	frame    int64
	baseSlot int64
	// wheelCnt counts events resident in level 0, farCnt in level 1.
	wheelCnt int
	farCnt   int
	// overflow holds events that were beyond level 1 when scheduled.
	overflow eventHeap
	// free is the intrusive event free list, and slab the size of the
	// last slab alloc carved it from.
	free *event
	slab int
	// slots holds the head of each wheel list — the numSlots level-0 slots,
	// then the numFrames level-1 frames, frame f at numSlots+f&frameMask —
	// and bitmap one occupancy bit per list. Order within a list is
	// irrelevant, activation sorts the slot.
	slots  [numLists]*event
	bitmap [bitmapWords]uint64
}

// NewEngine returns an engine with the clock at time zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are scheduled and not cancelled.
func (e *Engine) Pending() int { return e.live }

// Handle identifies a scheduled event so that it can be cancelled. The
// generation survives event recycling: a Handle held past its event's
// firing safely reports false from Cancel even after the struct is reused.
type Handle struct {
	ev  *event
	gen uint32
}

// Armed reports whether the event is still pending: scheduled and neither
// fired nor cancelled. A zero Handle reports false.
func (h Handle) Armed() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.where != locFree
}

// Cancel prevents the event from running. Cancelling an already-fired or
// already-cancelled event is a no-op. Cancel reports whether the event was
// still pending. The event is taken out of its container immediately —
// O(1) for either wheel level and for the ready run, where it leaves a
// tombstone that firing skips, O(log n) for the side or overflow heap — so
// cancel-heavy patterns (retransmission timers) do not accumulate garbage.
func (h Handle) Cancel() bool {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.where == locFree {
		return false
	}
	e := ev.eng
	e.live--
	if ev.at > e.maxDeadAt {
		e.maxDeadAt = ev.at
	}
	switch ev.where {
	case locRun:
		e.run[ev.idx] = nil
	case locSide:
		e.side.remove(int(ev.idx))
	case locOverflow:
		e.overflow.remove(int(ev.idx))
	default: // wheel list: unlink
		list := int(ev.where)
		if ev.next != nil {
			ev.next.prev = ev.prev
		}
		if ev.prev != nil {
			ev.prev.next = ev.next
			ev.prev = nil
		} else {
			e.slots[list] = ev.next
			if ev.next == nil {
				e.bitmap[list>>6] &^= 1 << uint(list&63)
			}
		}
		if list < numSlots {
			e.wheelCnt--
		} else {
			e.farCnt--
		}
	}
	e.recycle(ev)
	return true
}

// Slab bounds for the event free list's growth: a cold engine allocates
// its events 8, 16, 32 and then 64 at a time, so a short test pays a few
// allocations for its events rather than one each, and a tester that
// schedules little stays small.
const (
	minSlab = 8
	maxSlab = 64
)

// alloc takes an event from the free list, or on a cold start carves the
// next slab and links all but the one it returns onto the free list.
func (e *Engine) alloc() *event {
	ev := e.free
	if ev == nil {
		e.slab = min(max(minSlab, 2*e.slab), maxSlab)
		slab := make([]event, e.slab)
		for i := len(slab) - 1; i > 0; i-- {
			slab[i] = event{eng: e, where: locFree, next: e.free}
			e.free = &slab[i]
		}
		slab[0].eng = e
		return &slab[0]
	}
	e.free = ev.next
	ev.next = nil
	return ev
}

// recycle bumps the event's generation (invalidating outstanding Handles)
// and returns it to the free list.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.h, ev.arg = nil, nil
	ev.where = locFree
	ev.next = e.free
	e.free = ev
}

// schedule allocates, fills, and inserts one event.
func (e *Engine) schedule(at Time, h Handler, arg any) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	ev := e.alloc()
	ev.at, ev.seq = at, e.seq
	ev.h, ev.arg = h, arg
	e.seq++
	e.live++
	e.insert(ev)
	return Handle{ev, ev.gen}
}

// insert places the event in the side heap, a level-0 slot, a level-1
// frame, or overflow.
func (e *Engine) insert(ev *event) {
	s := int64(ev.at) >> slotShift
	if s < e.baseSlot {
		ev.where = locSide
		e.side.push(ev)
		return
	}
	switch f := s >> slotBits; {
	case f == e.frame:
		e.linkSlot(ev)
	case f-e.frame < numFrames:
		e.link(ev, numSlots+int(f&frameMask))
		e.farCnt++
	default:
		ev.where = locOverflow
		e.overflow.push(ev)
	}
}

// link pushes the event onto a wheel list and marks the occupancy bit.
func (e *Engine) link(ev *event, list int) {
	ev.where = int32(list)
	head := e.slots[list]
	ev.prev, ev.next = nil, head
	if head != nil {
		head.prev = ev
	}
	e.slots[list] = ev
	e.bitmap[list>>6] |= 1 << uint(list&63)
}

// linkSlot puts an event of the current frame on its level-0 slot.
func (e *Engine) linkSlot(ev *event) {
	e.link(ev, int(int64(ev.at)>>slotShift&slotMask))
	e.wheelCnt++
}

// take empties a wheel list and returns its head.
func (e *Engine) take(list int) *event {
	ev := e.slots[list]
	e.slots[list] = nil
	e.bitmap[list>>6] &^= 1 << uint(list&63)
	return ev
}

// ScheduleAt enqueues fn to run at the absolute timestamp at. Scheduling in
// the past panics: it always indicates a component bug, and silently
// reordering time would corrupt every downstream measurement.
func (e *Engine) ScheduleAt(at Time, fn Func) Handle {
	return e.schedule(at, fn, nil)
}

// Schedule enqueues fn to run after delay d (d may be zero; negative d
// panics via ScheduleAt).
func (e *Engine) Schedule(d Duration, fn Func) Handle {
	return e.schedule(e.now.Add(d), fn, nil)
}

// ScheduleArgAt enqueues fn(arg) at the absolute timestamp at. Unlike a
// closure built per call site, fn can be allocated once and reused, keeping
// per-packet scheduling allocation-free on the hot paths.
func (e *Engine) ScheduleArgAt(at Time, fn ArgFunc, arg any) Handle {
	return e.schedule(at, fn, arg)
}

// ScheduleArg enqueues fn(arg) after delay d.
func (e *Engine) ScheduleArg(d Duration, fn ArgFunc, arg any) Handle {
	return e.schedule(e.now.Add(d), fn, arg)
}

// ScheduleFireAt enqueues h.Fire(arg) at the absolute timestamp at. A
// pointer handler costs no allocation to schedule, so a component can
// schedule its own methods without keeping a closure per kind of event.
func (e *Engine) ScheduleFireAt(at Time, h Handler, arg any) Handle {
	return e.schedule(at, h, arg)
}

// Stop makes the current Run call return after the in-flight event finishes.
func (e *Engine) Stop() { e.stopped = true }

// prime returns the earliest pending event without removing it: the
// earlier of the run's next live entry and the side heap's top, after
// activating the next wheel slot (moving to a later frame as needed) when
// both are used up.
func (e *Engine) prime() *event {
	for {
		for e.pos < len(e.run) && e.run[e.pos] == nil {
			e.pos++
		}
		if e.pos < len(e.run) {
			ev := e.run[e.pos]
			if len(e.side) > 0 && eventBefore(e.side[0], ev) {
				return e.side[0]
			}
			return ev
		}
		if len(e.side) > 0 {
			return e.side[0]
		}
		if !e.advance() {
			return nil
		}
	}
}

// advance activates the next non-empty slot of the frame, moving level 0
// to the next frame that holds anything when this one is used up, and
// sorts the slot's events into the run (which, like the side heap, the
// caller has used up). It reports whether any events remain anywhere.
func (e *Engine) advance() bool {
	if e.wheelCnt == 0 && !e.nextFrame() {
		return false
	}
	// Requires wheelCnt > 0: some slot at or after baseSlot is occupied.
	w := int(e.baseSlot&slotMask) >> 6
	word := e.bitmap[w] >> uint(e.baseSlot&63) << uint(e.baseSlot&63)
	for word == 0 {
		w++
		word = e.bitmap[w]
	}
	idx := w<<6 + bits.TrailingZeros64(word)
	if e.run == nil {
		// The first activation sizes the run and the side heap together,
		// from one array, for the few events a slot usually holds; either
		// grows past its share by append.
		buf := make([]*event, initRun+initSide)
		e.run, e.side = buf[:0:initRun], buf[initRun:initRun]
	}
	e.run, e.pos = e.run[:0], 0
	for ev := e.take(idx); ev != nil; {
		next := ev.next
		ev.prev, ev.next = nil, nil
		e.run = append(e.run, ev)
		ev = next
	}
	e.wheelCnt -= len(e.run)
	sortRun(e.run)
	for i, ev := range e.run {
		ev.where, ev.idx = locRun, int32(i)
	}
	e.baseSlot = e.frame<<slotBits + int64(idx) + 1
	return true
}

// nextFrame moves level 0 (empty, by the caller's check) to the earliest
// frame holding an event — in level 1 or in overflow, jumping over empty
// frames — and deals that frame's events out into the slots. It reports
// false when nothing is left anywhere.
func (e *Engine) nextFrame() bool {
	f := int64(-1)
	if e.farCnt > 0 {
		// Level 1 holds frames (e.frame, e.frame+numFrames): scan its ring
		// of occupancy bits from the bit after e.frame's, wrapping once.
		start := int(e.frame+1) & frameMask
		for k := 0; ; k++ {
			w := (start>>6 + k) & (frameWords - 1)
			word := e.bitmap[slotWords+w]
			if k == 0 {
				word = word >> uint(start&63) << uint(start&63)
			}
			if word != 0 {
				d := (w<<6 + bits.TrailingZeros64(word) - start) & frameMask
				f = e.frame + 1 + int64(d)
				break
			}
		}
	}
	if len(e.overflow) > 0 {
		if of := int64(e.overflow[0].at) >> frameShift; f < 0 || of < f {
			f = of
		}
	}
	if f < 0 {
		return false
	}
	e.frame, e.baseSlot = f, f<<slotBits
	for ev := e.take(numSlots + int(f&frameMask)); ev != nil; {
		next := ev.next
		e.farCnt--
		e.linkSlot(ev)
		ev = next
	}
	for len(e.overflow) > 0 && int64(e.overflow[0].at)>>frameShift == f {
		e.linkSlot(e.overflow.pop())
	}
	return true
}

// fire takes the primed event off the run or the side heap, runs it, and
// recycles it. The event is recycled before its body runs, so a Cancel from
// inside the body (or any time after) reports false, exactly like the heap
// implementation's fn-nilling.
func (e *Engine) fire(ev *event) {
	if ev.where == locRun {
		e.pos++
	} else {
		e.side.pop()
	}
	e.now = ev.at
	h, arg := ev.h, ev.arg
	e.recycle(ev)
	e.live--
	h.Fire(arg)
	e.executed++
}

// Run executes events in timestamp order until the queue is empty, the
// horizon is passed, or Stop is called. The clock is left at the timestamp
// of the last executed event, or at the horizon if it was reached with
// events still pending — where "pending" includes events cancelled but not
// yet notionally reaped (the maxDeadAt watermark), matching the heap
// scheduler's observable behavior. It returns the number of events executed
// by this call.
func (e *Engine) Run(until Time) uint64 {
	e.stopped = false
	start := e.executed
	for !e.stopped {
		ev := e.prime()
		if ev == nil {
			if e.maxDeadAt > until {
				e.now = until
			}
			break
		}
		if ev.at > until {
			e.now = until
			break
		}
		e.fire(ev)
	}
	// A heap-scheduler run to this horizon would have reaped every
	// cancelled event at or before it (runs always use until >= now).
	if !e.stopped && e.maxDeadAt <= until {
		e.maxDeadAt = 0
	}
	return e.executed - start
}

// RunAll executes events until the queue drains or Stop is called.
func (e *Engine) RunAll() uint64 { return e.Run(Forever) }

// NextEventAt reports the timestamp of the earliest pending event without
// running it, and whether one exists. Priming may move the wheel forward,
// but that is invisible to callers: firing order and the clock are unchanged. Conservative parallel runs use this to compute the global
// synchronization horizon before each round.
func (e *Engine) NextEventAt() (Time, bool) {
	ev := e.prime()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// AdvanceTo moves the clock forward to t without running anything. It is
// the barrier primitive of conservative parallel runs: after a round every
// partition engine is advanced to the common horizon so that cross-shard
// deliveries and barrier-time control actions schedule against lockstep
// clocks. Advancing past a pending event, or backward, panics — either
// would reorder time.
func (e *Engine) AdvanceTo(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: AdvanceTo %v before now %v", t, e.now))
	}
	if ev := e.prime(); ev != nil && ev.at < t {
		panic(fmt.Sprintf("sim: AdvanceTo %v past pending event at %v", t, ev.at))
	}
	e.now = t
	if e.maxDeadAt <= t {
		e.maxDeadAt = 0
	}
}

// Step executes the single next event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	ev := e.prime()
	if ev == nil {
		// The heap scheduler's Step drained every cancelled event while
		// searching for a live one.
		e.maxDeadAt = 0
		return false
	}
	e.fire(ev)
	if e.maxDeadAt <= e.now {
		e.maxDeadAt = 0
	}
	return true
}
