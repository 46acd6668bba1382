package shard

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/race"
	"marlin/internal/sim"
)

func TestNewValidation(t *testing.T) {
	ctl := sim.NewEngine()
	a, b := sim.NewEngine(), sim.NewEngine()
	cases := []struct {
		name      string
		parts     []*sim.Engine
		lookahead sim.Duration
	}{
		{"no partitions", nil, sim.Microsecond},
		{"zero lookahead", []*sim.Engine{a}, 0},
		{"negative lookahead", []*sim.Engine{a}, -sim.Nanosecond},
		{"ctl as partition", []*sim.Engine{ctl}, sim.Microsecond},
		{"duplicate engine", []*sim.Engine{a, a}, sim.Microsecond},
	}
	for _, tc := range cases {
		if _, err := New(ctl, tc.parts, tc.lookahead, 2); err == nil {
			t.Errorf("%s: New accepted", tc.name)
		}
	}
	r, err := New(ctl, []*sim.Engine{a, b}, sim.Microsecond, 99)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if r.Workers() != 2 {
		t.Errorf("workers clamped to %d, want 2", r.Workers())
	}
	if r.Lookahead() != sim.Microsecond {
		t.Errorf("lookahead = %v", r.Lookahead())
	}
}

func TestPortalRejectsForeignEngines(t *testing.T) {
	ctl := sim.NewEngine()
	a, b := sim.NewEngine(), sim.NewEngine()
	r, err := New(ctl, []*sim.Engine{a, b}, sim.Microsecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Portal accepted an unregistered source engine")
		}
	}()
	r.Portal(sim.NewEngine(), b, &netem.Sink{})
}

// recorder logs every delivery with its arrival clock. One recorder lives
// per destination partition, written only by that partition's engine.
type recorder struct {
	eng *sim.Engine
	log []string
}

func (rc *recorder) Receive(p *packet.Packet) {
	rc.log = append(rc.log, fmt.Sprintf("t=%v flow=%d psn=%d", rc.eng.Now(), p.Flow, p.PSN))
	p.Release()
}

// crossTraffic builds a 3-partition system where every partition streams
// packets to its neighbor (including same-timestamp collisions from two
// sources into one destination) and defers barrier callbacks, then runs it
// with the given worker count and returns every observable ordering.
func crossTraffic(t *testing.T, workers int) (perPart [][]string, ctlLog []string, st Stats) {
	t.Helper()
	const parts = 3
	const look = sim.Microsecond
	ctl := sim.NewEngine()
	engs := make([]*sim.Engine, parts)
	recs := make([]*recorder, parts)
	for i := range engs {
		engs[i] = sim.NewEngine()
		recs[i] = &recorder{eng: engs[i]}
	}
	r, err := New(ctl, engs, look, workers)
	if err != nil {
		t.Fatal(err)
	}
	// portals[src][dst]
	portals := make([][]netem.Remote, parts)
	for s := 0; s < parts; s++ {
		portals[s] = make([]netem.Remote, parts)
		for d := 0; d < parts; d++ {
			if s != d {
				portals[s][d] = r.Portal(engs[s], engs[d], recs[d])
			}
		}
	}
	for i := 0; i < parts; i++ {
		i := i
		eng := engs[i]
		for j := 0; j < 40; j++ {
			j := j
			// Staggered source times; arrival offsets chosen so distinct
			// sources regularly collide on the same arrival timestamp at
			// the same destination — the tie the (src, seq) rule breaks.
			at := sim.Duration(100+50*j) * sim.Nanosecond
			eng.Schedule(at, func() {
				dst := (i + 1) % parts
				arrive := eng.Now().Add(look + sim.Duration(j%2)*sim.Microsecond)
				portals[i][dst].Carry(packet.NewData(packet.FlowID(i*1000+j), uint32(j), 64, 0), arrive)
				if j%5 == 0 {
					r.DeferPart(i, func() {
						ctlLog = append(ctlLog, fmt.Sprintf("defer t=%v part=%d j=%d", ctl.Now(), i, j))
					})
				}
			})
		}
	}
	r.Run(sim.Time(50 * sim.Microsecond))
	for _, e := range append([]*sim.Engine{ctl}, engs...) {
		if e.Now() != sim.Time(50*sim.Microsecond) {
			t.Errorf("workers=%d: clock left at %v, want 50us", workers, e.Now())
		}
	}
	for _, rc := range recs {
		perPart = append(perPart, rc.log)
	}
	return perPart, ctlLog, r.Stats()
}

// TestDeterministicAcrossWorkers is the runner's core contract: every
// observable ordering — per-partition arrival logs, barrier callback
// replay, work counters — is identical whatever the worker count.
func TestDeterministicAcrossWorkers(t *testing.T) {
	forceCrew(t)
	basePer, baseCtl, baseStats := crossTraffic(t, 1)
	if baseStats.Carried != 120 {
		t.Fatalf("Carried = %d, want 120", baseStats.Carried)
	}
	if baseStats.Deferred != 24 {
		t.Fatalf("Deferred = %d, want 24", baseStats.Deferred)
	}
	if len(baseCtl) != 24 {
		t.Fatalf("ctl log has %d entries, want 24", len(baseCtl))
	}
	// 2 and 4 workers over 3 partitions own them unevenly (4 clamps to 3).
	// At a spin budget of 64 polls every wait parks, so the park and wake
	// path runs (and is raced) as often as the polling one.
	for _, budget := range []int{spinPolls, 64} {
		spinBudget(t, budget)
		for _, workers := range []int{2, 3, 4} {
			per, ctlLog, st := crossTraffic(t, workers)
			if !reflect.DeepEqual(per, basePer) {
				t.Errorf("spin %d, workers=%d: delivery order differs from workers=1", budget, workers)
			}
			if !reflect.DeepEqual(ctlLog, baseCtl) {
				t.Errorf("spin %d, workers=%d: deferred replay order differs from workers=1", budget, workers)
			}
			if st != baseStats {
				t.Errorf("spin %d, workers=%d: stats %+v, want %+v", budget, workers, st, baseStats)
			}
		}
	}
}

// TestTieBreakOrder pins the contractual delivery order for equal-time
// arrivals: ascending source partition, then capture sequence.
func TestTieBreakOrder(t *testing.T) {
	ctl := sim.NewEngine()
	a, b, c := sim.NewEngine(), sim.NewEngine(), sim.NewEngine()
	rec := &recorder{eng: c}
	r, err := New(ctl, []*sim.Engine{a, b, c}, sim.Microsecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	pa := r.Portal(a, c, rec)
	pb := r.Portal(b, c, rec)
	arrive := sim.Time(3 * sim.Microsecond)
	// Partition 1 captures first in host order; partition 0 must still
	// deliver first, and within a partition capture order holds.
	b.Schedule(100*sim.Nanosecond, func() {
		pb.Carry(packet.NewData(20, 0, 64, 0), arrive)
		pb.Carry(packet.NewData(21, 0, 64, 0), arrive)
	})
	a.Schedule(200*sim.Nanosecond, func() {
		pa.Carry(packet.NewData(10, 0, 64, 0), arrive)
		pa.Carry(packet.NewData(11, 0, 64, 0), arrive)
	})
	r.Run(sim.Time(10 * sim.Microsecond))
	want := []string{
		"t=3us flow=10 psn=0",
		"t=3us flow=11 psn=0",
		"t=3us flow=20 psn=0",
		"t=3us flow=21 psn=0",
	}
	if !reflect.DeepEqual(rec.log, want) {
		t.Errorf("delivery order:\n got %v\nwant %v", rec.log, want)
	}
}

// TestRunIdleAdvancesClocks covers the drained case: no pending events
// anywhere still brings every clock to the horizon.
func TestRunIdleAdvancesClocks(t *testing.T) {
	ctl := sim.NewEngine()
	a, b := sim.NewEngine(), sim.NewEngine()
	r, err := New(ctl, []*sim.Engine{a, b}, sim.Microsecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(sim.Time(7 * sim.Microsecond))
	for _, e := range []*sim.Engine{ctl, a, b} {
		if e.Now() != sim.Time(7*sim.Microsecond) {
			t.Errorf("clock at %v, want 7us", e.Now())
		}
	}
	if r.Stats().Rounds != 0 {
		t.Errorf("idle run counted %d rounds", r.Stats().Rounds)
	}
}

// TestControlEventBarrier verifies a control-engine event executes with
// every partition clock exactly at its timestamp — the horizon is capped at
// the next control event.
func TestControlEventBarrier(t *testing.T) {
	ctl := sim.NewEngine()
	a, b := sim.NewEngine(), sim.NewEngine()
	r, err := New(ctl, []*sim.Engine{a, b}, 100*sim.Microsecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Keep both partitions busy with a fine-grained event chain so their
	// clocks would race far past the control event under the big lookahead
	// if the cap were missing.
	for _, e := range []*sim.Engine{a, b} {
		e := e
		var tick sim.Func
		tick = func() { e.Schedule(500*sim.Nanosecond, tick) }
		e.Schedule(500*sim.Nanosecond, tick)
	}
	var atCtl [2]sim.Time
	ctl.Schedule(5*sim.Microsecond, func() {
		atCtl[0], atCtl[1] = a.Now(), b.Now()
	})
	r.Run(sim.Time(20 * sim.Microsecond))
	for i, got := range atCtl {
		if got != sim.Time(5*sim.Microsecond) {
			t.Errorf("partition %d clock at control event: %v, want 5us", i, got)
		}
	}
}

// warmWheel touches every timer-wheel slot of e (two events per slot over
// one full wheel window) so steady-state allocation asserts don't count the
// engine's one-time, lazily-grown slot slices.
func warmWheel(e *sim.Engine) {
	noop := func() {}
	for i := 0; i < 2*4096; i++ {
		e.Schedule(sim.Duration(i)*4096*sim.Picosecond, noop)
	}
}

// TestHeadersFillTheirSpan pins the padding of every header a worker
// writes: each takes exactly lineSpan bytes, so a field added without
// shrinking the pad cannot silently put two workers' writes on one line.
func TestHeadersFillTheirSpan(t *testing.T) {
	for name, size := range map[string]uintptr{
		"mailbox": unsafe.Sizeof(mailbox{}),
		"source":  unsafe.Sizeof(source{}),
		"dest":    unsafe.Sizeof(dest{}),
	} {
		if size != lineSpan {
			t.Errorf("%s is %d bytes, want %d", name, size, lineSpan)
		}
	}
	var c crew
	if off := unsafe.Offsetof(c.left); off != lineSpan {
		t.Errorf("crew.left at offset %d, want %d: it must not share gen's lines", off, lineSpan)
	}
	if off := unsafe.Offsetof(c.size); off != 2*lineSpan {
		t.Errorf("crew fields after left start at %d, want %d", off, 2*lineSpan)
	}
}

// forceCrew lets a crew form at any GOMAXPROCS for the rest of the test, so
// the crew paths run even where the runtime clamp would make them inline
// (GOMAXPROCS=1, and inside testing.AllocsPerRun, which sets it).
func forceCrew(t *testing.T) {
	old := maxProcs
	maxProcs = func() int { return 64 }
	t.Cleanup(func() { maxProcs = old })
}

// spinBudget sets how long crew waiters poll before parking, for the rest
// of the test.
func spinBudget(t *testing.T, polls int) {
	old := spinPolls
	spinPolls = polls
	t.Cleanup(func() { spinPolls = old })
}

// handoff builds two partitions where partition 0 hands partition 1 one
// packet a microsecond, with a 1us lookahead (a round a microsecond).
func handoff(tb testing.TB, workers int) (*Runner, *sim.Engine) {
	ctl := sim.NewEngine()
	a, b := sim.NewEngine(), sim.NewEngine()
	r, err := New(ctl, []*sim.Engine{a, b}, sim.Microsecond, workers)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range []*sim.Engine{ctl, a, b} {
		warmWheel(e)
	}
	p := r.Portal(a, b, &countingSink{})
	var tick sim.Func
	tick = func() {
		p.Carry(packet.NewData(1, 0, 64, 0), a.Now().Add(2*sim.Microsecond))
		a.Schedule(sim.Microsecond, tick)
	}
	a.Schedule(sim.Microsecond, tick)
	return r, ctl
}

// TestHandoffAllocs is the memory-discipline gate: after warm-up, a steady
// cross-partition packet stream completes rounds without allocating —
// mailboxes, merge buffers, and event slots are all reused — and, with a
// crew, starting and stopping it costs nothing once the runtime has cached
// its goroutines: a Run over 10 rounds and one over 100 allocate the same,
// zero.
func TestHandoffAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race runtime allocates; allocation counts are meaningless")
	}
	forceCrew(t)
	for _, workers := range []int{1, 2} {
		r, ctl := handoff(t, workers)
		// Drain the wheel warm-up, fill the packet pool and mailboxes, and
		// let the runtime cache the crew's goroutines.
		r.Run(sim.Time(100 * sim.Microsecond))
		for i := 0; i < 300; i++ {
			r.Run(ctl.Now().Add(10 * sim.Microsecond))
		}
		for _, rounds := range []int{10, 100} {
			step := sim.Duration(rounds) * sim.Microsecond
			allocs := testing.AllocsPerRun(50, func() { r.Run(ctl.Now().Add(step)) })
			if allocs > 0 {
				t.Errorf("workers=%d: a steady-state Run over %d rounds allocates %.1f times, want 0", workers, rounds, allocs)
			}
		}
	}
}

// With pools, a carried packet joins its destination's pool, and the
// barrier hands what the destination frees back to the partition minting
// them: partition 0 mints a packet a microsecond from its pool and
// partition 1 releases each, yet once warm neither pool allocates and
// partition 1, which mints nothing, keeps no free packet past a barrier.
func TestPoolsFollowTheirPackets(t *testing.T) {
	if race.Enabled {
		t.Skip("race runtime allocates; allocation counts are meaningless")
	}
	forceCrew(t)
	for _, workers := range []int{1, 2} {
		ctl := sim.NewEngine()
		a, b := sim.NewEngine(), sim.NewEngine()
		r, err := New(ctl, []*sim.Engine{a, b}, sim.Microsecond, workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []*sim.Engine{ctl, a, b} {
			warmWheel(e)
		}
		pools := []*packet.Pool{new(packet.Pool), new(packet.Pool)}
		r.SetPools(pools, new(packet.Pool))
		p := r.Portal(a, b, &countingSink{})
		var tick sim.Func
		tick = func() {
			p.Carry(pools[0].NewData(1, 0, 64, a.Now()), a.Now().Add(2*sim.Microsecond))
			a.Schedule(sim.Microsecond, tick)
		}
		a.Schedule(sim.Microsecond, tick)
		r.Run(sim.Time(sim.Millisecond))
		for i := 0; i < 100; i++ {
			r.Run(ctl.Now().Add(10 * sim.Microsecond))
		}
		if allocs := testing.AllocsPerRun(50, func() { r.Run(ctl.Now().Add(100 * sim.Microsecond)) }); allocs > 0 {
			t.Errorf("workers=%d: a Run of 100 packets minted on partition 0 and freed on 1 allocates %.1f times, want 0", workers, allocs)
		}
		if n := pools[1].Spare(); n != 0 {
			t.Errorf("workers=%d: partition 1 holds %d free packets after a barrier, want 0", workers, n)
		}
	}
}

// settleGoroutines waits (briefly) for exited goroutines to leave the
// runtime's count: a worker returns just after signalling its exit, so the
// count can lag Run's return by a moment.
func settleGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 2000 {
			t.Fatalf("%s: %d goroutines after Run, %d before", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCrewLeavesNoGoroutines: whatever a Run did — carried traffic, found
// nothing to do, drained every engine — its crew is gone when it returns,
// including when more workers were asked for than there are partitions.
func TestCrewLeavesNoGoroutines(t *testing.T) {
	forceCrew(t)
	base := runtime.NumGoroutine()

	r, ctl := handoff(t, 2)
	r.Run(sim.Time(200 * sim.Microsecond))
	settleGoroutines(t, base, "traffic run")

	idle, err := New(sim.NewEngine(), []*sim.Engine{sim.NewEngine(), sim.NewEngine()}, sim.Microsecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	idle.Run(sim.Time(50 * sim.Microsecond))
	settleGoroutines(t, base, "idle run")

	// Drained: the partitions' last events fall early in the window.
	a, b := sim.NewEngine(), sim.NewEngine()
	drained, err := New(ctl, []*sim.Engine{a, b}, sim.Microsecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	a.Schedule(sim.Microsecond, func() {})
	b.Schedule(2*sim.Microsecond, func() {})
	drained.Run(ctl.Now().Add(100 * sim.Microsecond))
	settleGoroutines(t, base, "drained run")

	_, _, st := crossTraffic(t, 8)
	if st.Carried != 120 {
		t.Fatalf("workers > partitions: Carried = %d, want 120", st.Carried)
	}
	settleGoroutines(t, base, "workers > partitions")

	// A crew whose workers are parked when it is stopped.
	spinBudget(t, 64)
	crossTraffic(t, 3)
	settleGoroutines(t, base, "parking crew")
}

// TestPartitionPanicReachesCaller: a panic in a partition event surfaces
// from Run with its own value, whichever worker owned the partition, and
// the crew is gone afterwards.
func TestPartitionPanicReachesCaller(t *testing.T) {
	forceCrew(t)
	base := runtime.NumGoroutine()
	for part := 0; part < 3; part++ {
		ctl := sim.NewEngine()
		engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine(), sim.NewEngine()}
		r, err := New(ctl, engs, sim.Microsecond, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range engs {
			e := e
			var tick sim.Func
			tick = func() { e.Schedule(500*sim.Nanosecond, tick) }
			e.Schedule(500*sim.Nanosecond, tick)
		}
		want := fmt.Sprintf("boom in partition %d", part)
		engs[part].Schedule(5*sim.Microsecond, func() { panic(want) })
		got := func() (v any) {
			defer func() { v = recover() }()
			r.Run(sim.Time(20 * sim.Microsecond))
			return nil
		}()
		if got != want {
			t.Errorf("partition %d: Run raised %v, want %q", part, got, want)
		}
		settleGoroutines(t, base, want)
	}
}

// countingSink releases deliveries without logging (no append growth).
type countingSink struct{ n int }

func (c *countingSink) Receive(p *packet.Packet) {
	c.n++
	p.Release()
}

// BenchmarkHandoff measures one steady-state cross-partition packet
// transfer end to end: capture, barrier merge, scheduled delivery.
func BenchmarkHandoff(b *testing.B) {
	ctl := sim.NewEngine()
	pa, pb := sim.NewEngine(), sim.NewEngine()
	r, err := New(ctl, []*sim.Engine{pa, pb}, sim.Microsecond, 1)
	if err != nil {
		b.Fatal(err)
	}
	port := r.Portal(pa, pb, &countingSink{})
	var tick sim.Func
	tick = func() {
		port.Carry(packet.NewData(1, 0, 64, 0), pa.Now().Add(2*sim.Microsecond))
		pa.Schedule(sim.Microsecond, tick)
	}
	pa.Schedule(sim.Microsecond, tick)
	end := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		end = end.Add(sim.Microsecond)
		r.Run(end)
	}
}
