package sim

import "fmt"

// CheckAgainstRef drives a timer-wheel Engine and the reference heap
// RefEngine through one seeded stream of ops schedule/cancel/run operations
// and returns the first divergence in firing order, clocks, Run counts,
// Cancel results, Pending, NextEventAt or Handle.Armed, or nil. It is the
// machine check behind the claim that the wheel preserves the determinism
// contract bit for bit; the package's differential tests and the fuzzer's
// refengine oracle both run it.
//
// Delays are drawn from every span the wheel treats differently: the same
// timestamp, one slot, one frame, level 1 (1 to 255 frames ahead), just
// past it (up to 300 frames) and deep overflow, so runs also jump over
// empty frames. On top of that the stream
//
//   - plants bursts of three to six events in one wheel list — a level-0
//     slot or a level-1 frame — and cancels the tail, a middle and the head
//     of that list, from outside or from inside the body of an event firing
//     just before it, re-arming the level-1 ones in place, so every unlink
//     case of the intrusive lists is compared against the heap;
//   - cancels a far event and runs to a horizon short of it (the maxDeadAt
//     watermark);
//   - puts events on a frame boundary and one picosecond before it and
//     lands Run, AdvanceTo and NextEventAt exactly there;
//   - packs 17 to 64 events onto eight timestamps of one slot, past the
//     insertion-sort threshold, and from inside the slot once it is
//     activated cancels every third of them (ready entries of the sorted
//     run, or ones already fired) and schedules into the activated slot, at
//     the current timestamp and later in the slot;
//   - ends with events at and just below Forever.
func CheckAgainstRef(seed uint64, ops int) error {
	wheel, ref := NewEngine(), NewRefEngine()
	sides := [2]*diffSide{
		{
			now: wheel.Now, run: wheel.Run, advance: wheel.AdvanceTo, pending: wheel.Pending, next: wheel.NextEventAt,
			schedule: func(at Time, fn Func) diffHandle {
				h := wheel.ScheduleAt(at, fn)
				return diffHandle{h.Cancel, h.Armed, h.ev}
			},
		},
		{
			now: ref.Now, run: ref.Run, advance: ref.AdvanceTo, pending: ref.Pending, next: ref.NextEventAt,
			schedule: func(at Time, fn Func) diffHandle {
				h := ref.ScheduleAt(at, fn)
				return diffHandle{h.Cancel, h.Armed, nil}
			},
		},
	}
	w, r := sides[0], sides[1]

	// spawn schedules the next event id at the same timestamp on both
	// sides. Every third event schedules a child from inside its body, with
	// a delay derived purely from its id so both engines agree.
	nextID := 0
	spawn := func(at Time) {
		id := nextID
		nextID++
		for _, s := range sides {
			s := s
			s.handles = append(s.handles, s.schedule(at, func() {
				s.trace = append(s.trace, traceEntry{id, s.now()})
				if id%3 == 0 {
					s.schedule(timeFor(s.now(), splitmix(uint64(id))), func() {
						s.trace = append(s.trace, traceEntry{-id - 1, s.now()})
					})
				}
			}))
		}
	}
	// cancel cancels handle i on one side and checks it reads unarmed.
	cancel := func(s *diffSide, i int) (bool, error) {
		ok := s.handles[i].cancel()
		if s.handles[i].armed() {
			return ok, fmt.Errorf("handle %d still armed after Cancel", i)
		}
		return ok, nil
	}
	// run runs both sides to one horizon and compares counts and clocks.
	run := func(op int, horizon Time) error {
		if nw, nr := w.run(horizon), r.run(horizon); nw != nr {
			return fmt.Errorf("op %d: Run executed wheel=%d heap=%d", op, nw, nr)
		}
		if w.now() != r.now() {
			return fmt.Errorf("op %d: clocks diverged wheel=%v heap=%v", op, w.now(), r.now())
		}
		return nil
	}

	rng := NewRand(seed)
	for op := 0; op < ops; op++ {
		x := rng.Uint64()
		switch k := x % 22; {
		case k < 9: // schedule
			spawn(timeFor(w.now(), splitmix(x)))
		case k < 12: // burst into one wheel list, then cancel within it
			n := 3 + int(x>>8)%4
			first := len(w.handles)
			var before Time // where the cancelling body fires, if inside
			far := k == 11
			if far {
				// One level-1 frame, any slots of it. (The clock can be a
				// frame ahead of an idle wheel.)
				f := int64(w.now()) >> frameShift
				if f < wheel.frame {
					f = wheel.frame
				}
				f += 1 + int64(x>>16)%(numFrames-1)
				for j := 0; j < n; j++ {
					spawn(Time(f<<frameShift) + Time(splitmix(x+uint64(j))%uint64(frameWidth)))
				}
				before = Time(f<<frameShift) - 1
			} else {
				// One slot past every activated one; it is a level-0 slot
				// unless that crosses into the next frame.
				slot := int64(w.now()) >> slotShift
				if slot < wheel.baseSlot {
					slot = wheel.baseSlot
				}
				slot += 2 + int64(x>>16)%512
				for j := 0; j < n; j++ {
					spawn(Time(slot<<slotShift) + Time(splitmix(x+uint64(j))%uint64(slotWidth)))
				}
				before = Time((slot - 1) << slotShift)
			}
			// Each went where its timestamp says. An event scheduled beyond
			// level 1 stays in overflow until the wheel reaches its frame.
			beyond := false
			for _, h := range w.handles[first:] {
				if want := listOf(wheel, h.ev.at); h.ev.where != int32(want) {
					return fmt.Errorf("op %d: event at %v scheduled into %d, want %d", op, h.ev.at, h.ev.where, want)
				}
				beyond = h.ev.where == locOverflow
			}
			// Lists push at the head: the first scheduled is the tail.
			victims := [3]int{first + n/2, first, first + n - 1}
			// cancelVictims cancels the three on one side, recording which
			// were still pending; the wheel's must be on the list their
			// timestamp maps to now. Cancelled level-1 events are re-armed one
			// frame further on (or in place when that leaves level 1).
			cancelVictims := func(s *diffSide) {
				list := -1
				for _, v := range victims {
					h := s.handles[v]
					if ev := h.ev; ev != nil && h.armed() && !beyond {
						if list = listOf(wheel, ev.at); ev.where != int32(list) {
							s.bodyErr = fmt.Errorf("burst event %d (at %v) on list %d, want %d", v, ev.at, ev.where, list)
						}
					}
					ok, err := cancel(s, v)
					if err != nil {
						s.bodyErr = err
					}
					if !ok {
						continue
					}
					s.trace = append(s.trace, traceEntry{1<<30 + v, s.now()})
					if far {
						at := before + 1 + Time(splitmix(x+uint64(v))%uint64(2*frameWidth))
						s.schedule(at, func() { s.trace = append(s.trace, traceEntry{1<<29 + v, s.now()}) })
					}
				}
				if list >= 0 && s == w && (wheel.bitmap[list>>6]>>uint(list&63)&1 != 0) != (wheel.slots[list] != nil) {
					s.bodyErr = fmt.Errorf("wheel list %d: occupancy bit disagrees with its list", list)
				}
			}
			for _, s := range sides {
				if x>>4&1 == 0 {
					cancelVictims(s)
					continue
				}
				// From inside an event firing just before the burst's slot or
				// frame: the burst is still on its list when this body runs.
				s := s
				s.schedule(before, func() { cancelVictims(s) })
			}
		case k < 15: // cancel a random handle (possibly already fired)
			if len(w.handles) == 0 {
				continue
			}
			i := int(x/32) % len(w.handles)
			cw, err := cancel(w, i)
			if err != nil {
				return fmt.Errorf("op %d: wheel: %v", op, err)
			}
			cr, err := cancel(r, i)
			if err != nil {
				return fmt.Errorf("op %d: heap: %v", op, err)
			}
			if cw != cr {
				return fmt.Errorf("op %d: Cancel disagreed: wheel=%v heap=%v", op, cw, cr)
			}
		case k < 16: // cancel a far event, then run to a horizon short of it
			d := framesAhead(x>>8, 300)
			spawn(w.now().Add(d))
			for _, s := range sides {
				if ok, err := cancel(s, len(s.handles)-1); err != nil || !ok {
					return fmt.Errorf("op %d: cancel of a fresh far event: %v, %v", op, ok, err)
				}
			}
			if err := run(op, w.now().Add(d/2)); err != nil {
				return err
			}
		case k < 17: // an event on a frame boundary or just before; land on it
			edge := Time((int64(w.now())>>frameShift + 1 + int64(x>>8)%300) << frameShift)
			spawn(edge - Time(x>>5&1))
			if x>>6&1 == 0 {
				if err := run(op, edge-Time(x>>7&1)); err != nil {
					return err
				}
				break
			}
			// AdvanceTo may not pass a pending event.
			to := edge
			if at, ok := w.next(); ok && at < to {
				to = at
			}
			w.advance(to)
			r.advance(to)
		case k < 20: // run to a horizon
			if err := run(op, timeFor(w.now(), splitmix(x^0xabcd))); err != nil {
				return err
			}
		default: // a dense slot; cancel in it and push into it once activated
			n := 17 + int(x>>8)%48
			slot := int64(w.now()) >> slotShift
			if slot < wheel.baseSlot {
				slot = wheel.baseSlot
			}
			base := Time((slot + 1 + int64(x>>16)%64) << slotShift)
			first := len(w.handles)
			for j := 0; j < n; j++ {
				spawn(base + Time(splitmix(x+uint64(j))%8)*Time(slotWidth/8))
			}
			mid := base + Time(slotWidth/2)
			for _, s := range sides {
				s := s
				s.schedule(mid, func() {
					for v := first; v < first+n; v += 3 {
						ok, err := cancel(s, v)
						if err != nil {
							s.bodyErr = err
						}
						if ok {
							s.trace = append(s.trace, traceEntry{1<<30 + v, s.now()})
						}
					}
					for j, d := range [2]Time{0, 1 + Time(splitmix(x)%uint64(slotWidth/2-1))} {
						id := 1<<28 + 2*first + j
						s.schedule(s.now()+d, func() { s.trace = append(s.trace, traceEntry{id, s.now()}) })
					}
				})
			}
		}
		if err := compareSides(op, w, r); err != nil {
			return err
		}
	}
	// The top of the Time range: frames and slots must not wrap there.
	for _, back := range []Time{0, 1, Time(slotWidth), Time(frameWidth) - 1, Time(frameWidth), 3 * Time(frameWidth), 400 * Time(frameWidth)} {
		spawn(Forever - back)
	}
	for _, s := range sides {
		if _, err := cancel(s, len(s.handles)-2); err != nil {
			return fmt.Errorf("near Forever: %v", err)
		}
	}
	if err := compareSides(ops, w, r); err != nil {
		return err
	}
	nw, nr := wheel.RunAll(), ref.RunAll()
	if nw != nr || wheel.Now() != ref.Now() || wheel.Executed() != ref.Executed() {
		return fmt.Errorf("drain mismatch: executed wheel=%d heap=%d, now wheel=%v heap=%v",
			wheel.Executed(), ref.Executed(), wheel.Now(), ref.Now())
	}
	if wheel.wheelCnt != 0 || wheel.farCnt != 0 || len(wheel.overflow) != 0 || wheel.bitmap != [bitmapWords]uint64{} {
		return fmt.Errorf("drained wheel still holds events: level0=%d level1=%d overflow=%d", wheel.wheelCnt, wheel.farCnt, len(wheel.overflow))
	}
	if len(w.trace) != len(r.trace) {
		return fmt.Errorf("trace lengths wheel=%d heap=%d", len(w.trace), len(r.trace))
	}
	for i := range w.trace {
		if w.trace[i] != r.trace[i] {
			return fmt.Errorf("firing %d diverged: wheel=%+v heap=%+v", i, w.trace[i], r.trace[i])
		}
	}
	return nil
}

// compareSides checks everything observable between operations.
func compareSides(op int, w, r *diffSide) error {
	for _, s := range [2]*diffSide{w, r} {
		if s.bodyErr != nil {
			return fmt.Errorf("op %d: burst cancel: %v", op, s.bodyErr)
		}
	}
	if w.pending() != r.pending() {
		return fmt.Errorf("op %d: Pending wheel=%d heap=%d", op, w.pending(), r.pending())
	}
	wt, wok := w.next()
	rt, rok := r.next()
	if wt != rt || wok != rok {
		return fmt.Errorf("op %d: NextEventAt wheel=(%v,%v) heap=(%v,%v)", op, wt, wok, rt, rok)
	}
	for i := range w.handles {
		if aw, ar := w.handles[i].armed(), r.handles[i].armed(); aw != ar {
			return fmt.Errorf("op %d: handle %d Armed wheel=%v heap=%v", op, i, aw, ar)
		}
	}
	return nil
}

// listOf is the driver's own statement of which container holds a pending
// event at or after baseSlot: its slot of the current frame, the level-1
// list of a frame less than numFrames ahead, or overflow.
func listOf(e *Engine, at Time) int {
	s := int64(at) >> slotShift
	switch f := s >> slotBits; {
	case f == e.frame:
		return int(s & slotMask)
	case f-e.frame < numFrames:
		return numSlots + int(f&frameMask)
	}
	return locOverflow
}

// diffSide is one engine under CheckAgainstRef, reduced to the operations
// the op stream uses, plus what the driver records about it.
type diffSide struct {
	now      func() Time
	run      func(Time) uint64
	advance  func(Time)
	pending  func() int
	next     func() (Time, bool)
	schedule func(Time, Func) diffHandle

	handles []diffHandle
	trace   []traceEntry
	bodyErr error // a failed check on a burst cancel, possibly from inside an event body
}

type diffHandle struct {
	cancel, armed func() bool
	ev            *event // the wheel's record, for list-residency checks
}

type traceEntry struct {
	id int
	at Time
}

// splitmix hashes an op's randomness into per-id randomness, so both
// engines derive identical decisions without sharing an RNG cursor.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4b9b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// frameWidth is the span of one wheel frame.
const frameWidth = Duration(1) << frameShift

// framesAhead maps raw randomness to a delay of 1 to max whole frames plus
// a fraction of one.
func framesAhead(r uint64, max int) Duration {
	return Duration(1+r%uint64(max))*frameWidth + Duration(r>>16%uint64(frameWidth))
}

// timeFor maps raw randomness to a timestamp at or after now, with the
// delay drawn from the spans the wheel treats differently — same timestamp,
// within a slot, within a frame, level 1, the level 1/overflow border and
// deep overflow — saturating at Forever.
func timeFor(now Time, r uint64) Time {
	var d Duration
	switch r % 7 {
	case 0:
		d = 0
	case 1:
		d = Duration(r % uint64(slotWidth))
	case 2:
		d = Duration(r % uint64(10*Microsecond))
	case 3, 4:
		d = Duration(r % uint64(2*Millisecond))
	case 5:
		d = framesAhead(r>>8, 300)
	default:
		d = Duration(r % uint64(300*Millisecond))
	}
	if at := now.Add(d); at >= now {
		return at
	}
	return Forever
}
