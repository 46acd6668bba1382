package shard

import (
	"fmt"
	"reflect"
	"testing"

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
	for _, workers := range []int{2, 3} {
		per, ctlLog, st := crossTraffic(t, workers)
		if !reflect.DeepEqual(per, basePer) {
			t.Errorf("workers=%d: delivery order differs from workers=1", workers)
		}
		if !reflect.DeepEqual(ctlLog, baseCtl) {
			t.Errorf("workers=%d: deferred replay order differs from workers=1", workers)
		}
		if st != baseStats {
			t.Errorf("workers=%d: stats %+v, want %+v", workers, st, baseStats)
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

// TestHandoffAllocs is the memory-discipline gate: after warm-up, a steady
// cross-partition packet stream completes rounds without allocating —
// mailboxes, merge buffers, and event slots are all reused.
func TestHandoffAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race runtime allocates; allocation counts are meaningless")
	}
	ctl := sim.NewEngine()
	a, b := sim.NewEngine(), sim.NewEngine()
	r, err := New(ctl, []*sim.Engine{a, b}, sim.Microsecond, 1)
	if err != nil {
		t.Fatal(err)
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
	end := sim.Time(100 * sim.Microsecond)
	step := sim.Duration(100 * sim.Microsecond)
	// Drain the wheel warm-up and fill the packet pool and mailboxes.
	r.Run(end)
	allocs := testing.AllocsPerRun(10, func() {
		end = end.Add(step)
		r.Run(end)
	})
	if allocs > 0 {
		t.Errorf("steady-state handoff allocates %.1f allocs per 100us window, want 0", allocs)
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
