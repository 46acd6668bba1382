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
// Besides delays drawn from the spans the models use, the stream plants
// bursts of three to six events in one wheel slot and cancels the tail, a
// middle and the head of that slot's list — from outside, or from inside the
// body of an event firing one slot earlier — so every unlink case of the
// intrusive slot lists is compared against the heap.
func CheckAgainstRef(seed uint64, ops int) error {
	wheel, ref := NewEngine(), NewRefEngine()
	sides := [2]*diffSide{
		{
			now: wheel.Now, run: wheel.Run, pending: wheel.Pending, next: wheel.NextEventAt,
			schedule: func(at Time, fn Func) diffHandle {
				h := wheel.ScheduleAt(at, fn)
				return diffHandle{h.Cancel, h.Armed, h.ev}
			},
		},
		{
			now: ref.Now, run: ref.Run, pending: ref.Pending, next: ref.NextEventAt,
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
					s.schedule(s.now().Add(deltaFor(splitmix(uint64(id)))), func() {
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

	rng := NewRand(seed)
	for op := 0; op < ops; op++ {
		x := rng.Uint64()
		switch {
		case x%10 < 5: // schedule
			spawn(w.now().Add(deltaFor(splitmix(x))))
		case x%10 < 6: // burst into one wheel slot, then cancel within it
			k := 3 + int(x>>8)%4
			slot := int64(w.now()) >> slotShift
			if slot < wheel.baseSlot {
				slot = wheel.baseSlot
			}
			slot += 2 + int64(x>>16)%512 // inside the window, past every activated slot
			first := len(w.handles)
			for j := 0; j < k; j++ {
				spawn(Time(slot<<slotShift) + Time(splitmix(x+uint64(j))%uint64(slotWidth)))
			}
			// Slots push at the head: the first scheduled is the tail.
			victims := [3]int{first + k/2, first, first + k - 1}
			// cancelVictims cancels the three on one side, recording which
			// were still pending; the wheel's must be on the slot's list.
			cancelVictims := func(s *diffSide) {
				for _, v := range victims {
					h := s.handles[v]
					if ev := h.ev; ev != nil && h.armed() && ev.where != int32(slot&slotMask) {
						s.bodyErr = fmt.Errorf("burst event %d not on wheel slot %d's list (where=%d)", v, slot&slotMask, ev.where)
					}
					ok, err := cancel(s, v)
					if err != nil {
						s.bodyErr = err
					}
					if ok {
						s.trace = append(s.trace, traceEntry{1<<30 + v, s.now()})
					}
				}
				i := slot & slotMask
				if s == w && (wheel.bitmap[i>>6]>>uint(i&63)&1 != 0) != (wheel.slots[i] != nil) {
					s.bodyErr = fmt.Errorf("wheel slot %d: occupancy bit disagrees with its list", i)
				}
			}
			for _, s := range sides {
				if x>>4&1 == 0 {
					cancelVictims(s)
					continue
				}
				// From inside a firing event, one slot earlier: the burst
				// is still on its slot's list when this body runs.
				s := s
				s.schedule(Time((slot-1)<<slotShift), func() { cancelVictims(s) })
			}
		case x%10 < 8: // cancel a random handle (possibly already fired)
			if len(w.handles) == 0 {
				continue
			}
			i := int(x/16) % len(w.handles)
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
		default: // run to a horizon
			horizon := w.now().Add(deltaFor(splitmix(x ^ 0xabcd)))
			if nw, nr := w.run(horizon), r.run(horizon); nw != nr {
				return fmt.Errorf("op %d: Run executed wheel=%d heap=%d", op, nw, nr)
			}
			if w.now() != r.now() {
				return fmt.Errorf("op %d: clocks diverged wheel=%v heap=%v", op, w.now(), r.now())
			}
		}
		for _, s := range sides {
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
	}
	nw, nr := wheel.RunAll(), ref.RunAll()
	if nw != nr || wheel.Now() != ref.Now() || wheel.Executed() != ref.Executed() {
		return fmt.Errorf("drain mismatch: executed wheel=%d heap=%d, now wheel=%v heap=%v",
			wheel.Executed(), ref.Executed(), wheel.Now(), ref.Now())
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

// diffSide is one engine under CheckAgainstRef, reduced to the operations
// the op stream uses, plus what the driver records about it.
type diffSide struct {
	now      func() Time
	run      func(Time) uint64
	pending  func() int
	next     func() (Time, bool)
	schedule func(Time, Func) diffHandle

	handles []diffHandle
	trace   []traceEntry
	bodyErr error // a failed check on a burst cancel, possibly from inside an event body
}

type diffHandle struct {
	cancel, armed func() bool
	ev            *event // the wheel's record, for slot-residency checks
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

// deltaFor maps raw randomness to a schedule delay drawn from the spans the
// models actually use: same-timestamp, sub-slot, intra-window, and
// overflow-horizon events all appear.
func deltaFor(r uint64) Duration {
	switch r % 5 {
	case 0:
		return 0
	case 1:
		return Duration(r % 8192) // within one wheel slot
	case 2:
		return Duration(r % uint64(10*Microsecond)) // within the window
	case 3:
		return Duration(r % uint64(2*Millisecond)) // overflow heap
	default:
		return Duration(r % uint64(300*Millisecond)) // far overflow
	}
}
