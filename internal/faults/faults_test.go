package faults

import (
	"slices"
	"strings"
	"testing"

	"marlin/internal/aqm"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

// stub implements Target over a fixed name->link table.
type stub struct {
	links  map[string]*netem.Link
	stalls []bool
}

func (s *stub) ResolveLink(name string) (*netem.Link, error) {
	if l, ok := s.links[name]; ok {
		return l, nil
	}
	return nil, errUnknown(name)
}

type errUnknown string

func (e errUnknown) Error() string { return "unknown link " + string(e) }

func (s *stub) StallNIC(st bool) { s.stalls = append(s.stalls, st) }

func data(flow packet.FlowID, psn uint32) *packet.Packet {
	return packet.NewData(flow, psn, 1000, 0)
}

func TestParseSpecRoundTrip(t *testing.T) {
	src := "linkdown leaf0->spine1 at 2ms for 500us; " +
		"brownout host2->leaf0 at 1ms for 1ms frac 0.25; " +
		"lossburst tx3 at 3ms for 200us prob 0.1 seed 7; " +
		"ecnoff leaf1->spine0 at 4ms for 1ms; " +
		"nicstall at 5ms for 100us"
	plan, err := ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Entries) != 5 {
		t.Fatalf("parsed %d entries, want 5", len(plan.Entries))
	}
	e := plan.Entries[0]
	if e.Kind != KindLinkDown || e.Link != "leaf0->spine1" ||
		e.At != sim.Time(2*sim.Millisecond) || e.Dur != 500*sim.Microsecond {
		t.Fatalf("entry 0 = %+v", e)
	}
	if e := plan.Entries[1]; e.Fraction != 0.25 {
		t.Fatalf("brownout fraction = %g", e.Fraction)
	}
	if e := plan.Entries[2]; e.Prob != 0.1 || e.Seed != 7 {
		t.Fatalf("lossburst = %+v", e)
	}
	if e := plan.Entries[4]; e.Kind != KindNICStall || e.Link != "" {
		t.Fatalf("nicstall = %+v", e)
	}
	// String() renders back into parseable syntax.
	plan2, err := ParseSpec(plan.String())
	if err != nil {
		t.Fatalf("round trip: %v\nrendered: %s", err, plan.String())
	}
	if len(plan2.Entries) != len(plan.Entries) {
		t.Fatalf("round trip lost entries: %s", plan.String())
	}
	for i := range plan.Entries {
		if plan.Entries[i] != plan2.Entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, plan.Entries[i], plan2.Entries[i])
		}
	}
}

func TestParseSpecDefaultsLossSeed(t *testing.T) {
	plan, err := ParseSpec("lossburst tx0 at 1ms for 1ms prob 0.5")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Entries[0].Seed != 1 {
		t.Fatalf("default seed = %d, want 1", plan.Entries[0].Seed)
	}
}

func TestParseSpecRejects(t *testing.T) {
	bad := []string{
		"",
		"linkdown at 1ms for 1ms",              // missing link
		"linkdown tx0 at 1ms",                  // missing for
		"brownout tx0 at 1ms for 1ms",          // missing frac
		"brownout tx0 at 1ms for 1ms frac 1.5", // frac > 1
		"lossburst tx0 at 1ms for 1ms",         // missing prob
		"lossburst tx0 at 1ms for 1ms prob 0",  // prob 0
		"nicstall tx0 at 1ms for 1ms",          // stall takes no link
		"explode tx0 at 1ms for 1ms",           // unknown kind
		"linkdown tx0 at 1ms for 0s",           // zero duration
		"linkdown tx0 at 1ms for 1ms frac 0.5", // frac on linkdown
		"linkdown tx0 at 1ms for 2ms; linkdown tx0 at 2.5ms for 1ms", // overlap
	}
	for _, src := range bad {
		if _, err := ParseSpec(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestValidateAllowsAdjacentAndDistinctKinds(t *testing.T) {
	plan := Plan{Entries: []Entry{
		LinkDown("a->b", sim.Time(sim.Millisecond), sim.Millisecond),
		// Back-to-back windows touch but do not overlap.
		LinkDown("a->b", sim.Time(2*sim.Millisecond), sim.Millisecond),
		// Different kind may overlap the first window.
		EcnOff("a->b", sim.Time(sim.Millisecond), 3*sim.Millisecond),
		// Same kind, different link.
		LinkDown("b->c", sim.Time(sim.Millisecond), sim.Millisecond),
	}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyRejectsUnresolvableLink(t *testing.T) {
	eng := sim.NewEngine()
	tgt := &stub{links: map[string]*netem.Link{}}
	plan := Plan{Entries: []Entry{LinkDown("nope", 0, sim.Millisecond)}}
	if err := Apply(eng, tgt, plan); err == nil {
		t.Fatal("unresolvable link accepted")
	}
	if eng.Pending() != 0 {
		t.Fatalf("events scheduled despite failed Apply: %d", eng.Pending())
	}
}

func TestApplyLinkDownWindow(t *testing.T) {
	eng := sim.NewEngine()
	sink := netem.NodeFunc(func(p *packet.Packet) { p.Release() })
	l := netem.NewLink(eng, netem.LinkConfig{Rate: sim.Gbps}, sink)
	tgt := &stub{links: map[string]*netem.Link{"a->b": l}}
	at, dur := sim.Time(sim.Millisecond), 500*sim.Microsecond
	if err := Apply(eng, tgt, Plan{Entries: []Entry{LinkDown("a->b", at, dur)}}); err != nil {
		t.Fatal(err)
	}
	eng.Run(at.Add(dur / 2))
	if !l.Down() {
		t.Fatal("link not down inside the window")
	}
	eng.RunAll()
	if l.Down() {
		t.Fatal("link still down after the window")
	}
}

func TestApplyBrownoutRestoresRate(t *testing.T) {
	eng := sim.NewEngine()
	sink := netem.NodeFunc(func(p *packet.Packet) { p.Release() })
	l := netem.NewLink(eng, netem.LinkConfig{Rate: 100 * sim.Gbps}, sink)
	tgt := &stub{links: map[string]*netem.Link{"a->b": l}}
	at, dur := sim.Time(sim.Millisecond), sim.Millisecond
	err := Apply(eng, tgt, Plan{Entries: []Entry{Brownout("a->b", at, dur, 0.1)}})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(at.Add(dur / 2))
	if l.Rate() != 10*sim.Gbps {
		t.Fatalf("brownout rate = %v, want 10Gbps", l.Rate())
	}
	eng.RunAll()
	if l.Rate() != 100*sim.Gbps {
		t.Fatalf("restored rate = %v, want 100Gbps", l.Rate())
	}
}

func TestLossBurstWindowedAndDeterministic(t *testing.T) {
	// One arrival every 10us for 3ms: PSNs 100..199 arrive inside the
	// [1ms, 2ms) window. run returns the PSNs the burst dropped; two runs
	// must drop the same packets, not merely as many.
	const n = 300
	run := func() (dropped []uint32) {
		eng := sim.NewEngine()
		var got [n]bool
		sink := netem.NodeFunc(func(p *packet.Packet) { got[p.PSN] = true; p.Release() })
		l := netem.NewLink(eng, netem.LinkConfig{Rate: 100 * sim.Gbps, QueueBytes: 1 << 24}, sink)
		tgt := &stub{links: map[string]*netem.Link{"a->b": l}}
		at, dur := sim.Time(sim.Millisecond), sim.Millisecond
		err := Apply(eng, tgt, Plan{Entries: []Entry{LossBurst("a->b", at, dur, 0.5, 42)}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			i := i
			eng.ScheduleAt(sim.Time(i)*sim.Time(10*sim.Microsecond), func() {
				l.Send(data(1, uint32(i)))
			})
		}
		eng.RunAll()
		for psn, ok := range got {
			if !ok {
				dropped = append(dropped, uint32(psn))
			}
		}
		if x := l.Stats().InjectedDrops; x != uint64(len(dropped)) {
			t.Fatalf("%d PSNs missing, %d injected drops counted", len(dropped), x)
		}
		return dropped
	}
	// The coin is the entry's seeded stream and nothing else: the k-th
	// packet inside the window is dropped when the k-th draw is below prob.
	rng := sim.NewRand(42)
	var want []uint32
	for psn := uint32(100); psn < 200; psn++ {
		if rng.Float64() < 0.5 {
			want = append(want, psn)
		}
	}
	for i, got := range [][]uint32{run(), run()} {
		if !slices.Equal(got, want) {
			t.Fatalf("run %d dropped PSNs %v, want %v", i, got, want)
		}
	}
}

func TestEcnOffSuppressesDuringWindow(t *testing.T) {
	eng := sim.NewEngine()
	sink := netem.NodeFunc(func(p *packet.Packet) { p.Release() })
	l := netem.NewLink(eng, netem.LinkConfig{Rate: sim.Gbps, ECN: netem.StepMarking(0, 1)}, sink)
	tgt := &stub{links: map[string]*netem.Link{"a->b": l}}
	at, dur := sim.Time(sim.Millisecond), sim.Millisecond
	if err := Apply(eng, tgt, Plan{Entries: []Entry{EcnOff("a->b", at, dur)}}); err != nil {
		t.Fatal(err)
	}
	eng.Run(at.Add(dur / 2))
	if !l.Queue().MarkingSuppressed() {
		t.Fatal("marking not suppressed inside window")
	}
	eng.RunAll()
	if l.Queue().MarkingSuppressed() {
		t.Fatal("marking still suppressed after window")
	}
}

// TestEcnOffDegradesAQMToDrops is the AQM interplay regression: a PI2
// discipline keeps deciding Mark during an ecnoff window, but the queue
// must degrade those verdicts to drops (a real switch with ECN disabled
// still runs its AQM — it just can't mark), and marking must resume
// exactly when the window closes.
func TestEcnOffDegradesAQMToDrops(t *testing.T) {
	eng := sim.NewEngine()
	sink := netem.NodeFunc(func(p *packet.Packet) { p.Release() })
	aqmSpec, err := aqm.ParseSpec("pi2:target=10us,tupdate=100us,alpha=100,beta=1000")
	if err != nil {
		t.Fatal(err)
	}
	l := netem.NewLink(eng, netem.LinkConfig{
		Rate: sim.Gbps, AQM: aqmSpec, RNG: sim.NewRand(11),
	}, sink)
	tgt := &stub{links: map[string]*netem.Link{"a->b": l}}
	at, dur := sim.Time(10*sim.Millisecond), 10*sim.Millisecond
	if err := Apply(eng, tgt, Plan{Entries: []Entry{EcnOff("a->b", at, dur)}}); err != nil {
		t.Fatal(err)
	}
	// Offered load 2.4x the line rate so the PI2 controller saturates.
	for i := 0; i < 6000; i++ {
		i := i
		eng.ScheduleAt(sim.Time(i)*sim.Time(5*sim.Microsecond), func() {
			l.Send(packet.NewData(1, uint32(i), 1500, eng.Now()))
		})
	}
	type sample struct{ marks, aqmDrops uint64 }
	snap := func() sample {
		qs, as := l.Queue().Stats(), l.Queue().AQMStats()
		return sample{qs.ECNMarks, as.Drops}
	}
	var atStart, atEnd sample
	eng.ScheduleAt(at.Add(sim.Microsecond), func() { atStart = snap() })
	eng.ScheduleAt(at.Add(dur).Add(-sim.Microsecond), func() { atEnd = snap() })
	eng.RunAll()
	final := snap()

	if atStart.marks == 0 {
		t.Fatal("PI2 never marked before the ecnoff window")
	}
	if atEnd.marks != atStart.marks {
		t.Fatalf("CE marks advanced inside the ecnoff window: %d -> %d",
			atStart.marks, atEnd.marks)
	}
	if atEnd.aqmDrops <= atStart.aqmDrops {
		t.Fatalf("AQM verdicts did not degrade to drops in the window: %d -> %d",
			atStart.aqmDrops, atEnd.aqmDrops)
	}
	if final.marks <= atEnd.marks {
		t.Fatal("marking did not resume after the ecnoff window")
	}
}

func TestNICStallCallsTarget(t *testing.T) {
	eng := sim.NewEngine()
	tgt := &stub{links: map[string]*netem.Link{}}
	plan := Plan{Entries: []Entry{NICStall(sim.Time(sim.Millisecond), 100*sim.Microsecond)}}
	if err := Apply(eng, tgt, plan); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	if len(tgt.stalls) != 2 || !tgt.stalls[0] || tgt.stalls[1] {
		t.Fatalf("stall transitions = %v, want [true false]", tgt.stalls)
	}
}

func TestMonitorReportsRecovery(t *testing.T) {
	eng := sim.NewEngine()
	// Synthetic goodput: 12,500 bytes per 10 us (10 Gbps), except zero
	// during the outage [1ms, 1.5ms); recovery is instant at 1.5ms.
	outStart, outEnd := sim.Time(sim.Millisecond), sim.Time(1500*sim.Microsecond)
	var bytes, rtx, marks uint64
	tick := sim.NewTicker(eng, 10*sim.Microsecond, func() {
		now := eng.Now()
		if now < outStart || now >= outEnd {
			bytes += 12500
		} else {
			rtx++ // pretend the transport retransmits during the outage
		}
		if now >= outEnd {
			marks += 2
		}
	})
	tick.Start()
	plan := Plan{Entries: []Entry{LinkDown("a->b", outStart, outEnd.Sub(outStart))}}
	mon := NewMonitor(eng, plan,
		func() uint64 { return bytes },
		func() uint64 { return rtx },
		func() uint64 { return marks })
	eng.Run(sim.Time(3 * sim.Millisecond))
	tick.Stop()
	rs := mon.Report()
	if len(rs) != 1 {
		t.Fatalf("got %d recoveries", len(rs))
	}
	r := rs[0]
	if r.PreGbps < 9.5 || r.PreGbps > 10.5 {
		t.Fatalf("PreGbps = %g, want ~10", r.PreGbps)
	}
	if !r.Recovered {
		t.Fatal("recovery not detected")
	}
	// Goodput resumes immediately at outEnd; the first recovered sample is
	// within a couple of sampling intervals.
	if r.TimeToRecover <= 0 || r.TimeToRecover > 200*sim.Microsecond {
		t.Fatalf("TimeToRecover = %v, want (0, 200us]", r.TimeToRecover)
	}
	if r.RtxDuring == 0 {
		t.Fatal("RtxDuring = 0, want outage retransmits counted")
	}
	// marks advance 2 per 10us after the outage: 200,000/s.
	if r.PostMarkPerSec < 150_000 || r.PostMarkPerSec > 250_000 {
		t.Fatalf("PostMarkPerSec = %g, want ~200k", r.PostMarkPerSec)
	}
	if !strings.Contains(r.String(), "linkdown") {
		t.Fatalf("String() = %q", r.String())
	}
}

func TestMonitorNeverRecovered(t *testing.T) {
	eng := sim.NewEngine()
	var bytes uint64
	cut := sim.Time(sim.Millisecond)
	tick := sim.NewTicker(eng, 10*sim.Microsecond, func() {
		if eng.Now() < cut {
			bytes += 12500
		}
	})
	tick.Start()
	plan := Plan{Entries: []Entry{LinkDown("a->b", cut, 500*sim.Microsecond)}}
	zero := func() uint64 { return 0 }
	mon := NewMonitor(eng, plan,
		func() uint64 { return bytes }, zero, zero)
	eng.Run(sim.Time(3 * sim.Millisecond))
	tick.Stop()
	r := mon.Report()[0]
	if r.Recovered {
		t.Fatal("recovery reported though goodput never returned")
	}
	if r.TimeToRecover != 0 {
		t.Fatalf("TimeToRecover = %v for unrecovered fault", r.TimeToRecover)
	}
}
