package netem

import (
	"fmt"
	"reflect"
	"testing"

	"marlin/internal/aqm"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

// refLink is the link as it was before the serializer remembered freeAt:
// a drain loop that schedules two events per frame — the delivery and a
// wake-up at the end of the frame, whether or not anything waits — and a
// draining flag. It is the deliberately simple model the event-saving Link
// is checked against; it borrows the Link's fields and replaces its logic.
type refLink struct {
	*Link
	draining bool
}

func (r *refLink) Send(p *packet.Packet) {
	if r.down {
		r.stats.DownDrops++
		p.Release()
		return
	}
	for _, h := range r.hooks {
		switch h(p) {
		case Drop:
			r.stats.InjectedDrops++
			p.Release()
			return
		case MarkCE:
			p.Flags |= packet.FlagCE
			r.stats.InjectedMarks++
		}
	}
	if !r.queue.Enqueue(p) {
		p.Release()
		return
	}
	r.restart()
}

func (r *refLink) Resume() {
	if r.paused {
		r.paused = false
		r.restart()
	}
}

func (r *refLink) SetDown(down bool) {
	if r.down != down {
		if r.down = down; !down {
			r.restart()
		}
	}
}

func (r *refLink) restart() {
	if !r.paused && !r.down && !r.draining && r.queue.Len() > 0 {
		r.draining = true
		r.drain()
	}
}

func (r *refLink) drain() {
	var p *packet.Packet
	if !r.paused && !r.down {
		p = r.queue.Dequeue()
	}
	if p == nil {
		r.draining = false
		return
	}
	if r.enableINT && p.Type == packet.DATA {
		p.PushINT(packet.INTHop{QueueBytes: uint32(r.queue.Bytes()), TxBytes: r.stats.TxBytes, Rate: r.rate, TS: r.eng.Now()})
	}
	ser := r.rate.Serialize(packet.WireSize(p.Size))
	r.stats.TxPackets++
	r.stats.TxBytes += uint64(p.Size)
	prop := r.delay
	if r.jitter > 0 {
		prop += sim.Duration(r.jrng.Float64() * float64(r.jitter))
	}
	if r.remote != nil {
		r.remote.Carry(p, r.eng.Now().Add(ser+prop))
	} else {
		r.eng.Schedule(ser+prop, func() { r.dst.Receive(p) })
	}
	r.eng.Schedule(ser, r.drain)
}

// linkOps is what a script drives; *Link and *refLink both have it.
type linkOps interface {
	Send(*packet.Packet)
	Pause()
	Resume()
	SetDown(bool)
	SetRate(sim.Rate)
}

// action is one scripted call on the link at a simulated time.
type action struct {
	at sim.Time
	do func(linkOps)
}

func sendAt(at sim.Time, psn uint32, size int, ect packet.ECT) action {
	return action{at, func(l linkOps) { l.Send(packet.NewDataECT(1, psn, size, at, ect)) }}
}
func pauseAt(at sim.Time) action  { return action{at, func(l linkOps) { l.Pause() }} }
func resumeAt(at sim.Time) action { return action{at, func(l linkOps) { l.Resume() }} }
func downAt(at sim.Time, down bool) action {
	return action{at, func(l linkOps) { l.SetDown(down) }}
}
func rateAt(at sim.Time, r sim.Rate) action {
	return action{at, func(l linkOps) { l.SetRate(r) }}
}

// outcome is everything a run of a script leaves behind that a user or a
// neighbouring model can observe.
type outcome struct {
	// frames lists, in arrival order at the far end, each packet with the
	// INT stamp it left with (TS is its departure) and its arrival time.
	frames []frame
	link   LinkStats
	queue  QueueStats
	aqm    AQMStats
	events uint64
}

type frame struct {
	psn     uint32
	ce      bool
	stamp   packet.INTHop
	deliver sim.Time
}

// firstHop is the first telemetry stamp a packet carries, zero if none.
func firstHop(p *packet.Packet) packet.INTHop {
	if p.INT == nil {
		return packet.INTHop{}
	}
	return p.INT.Hops[0]
}

// carried records what a Remote is handed: the arrival time is computed,
// not waited for.
type carried struct{ frames *[]frame }

func (c carried) Carry(p *packet.Packet, deliverAt sim.Time) {
	*c.frames = append(*c.frames, frame{p.PSN, p.Flags.Has(packet.FlagCE), firstHop(p), deliverAt})
	p.Release()
}

// linkVariant is one way to build the link under test.
type linkVariant struct {
	name   string
	cfg    LinkConfig
	remote bool
	hook   Hook
	disc   func() aqm.AQM // a test discipline, installed instead of cfg.AQM
}

// play runs one script against a fresh link — the reference when ref is
// set — on its own engine. Script actions are scheduled up front, so at
// equal timestamps they run before anything the link scheduled itself, on
// either implementation.
func (v linkVariant) play(t *testing.T, ref bool, script []action) outcome {
	t.Helper()
	eng := sim.NewEngine()
	var out outcome
	cfg := v.cfg
	cfg.EnableINT = true
	cfg.RNG = sim.NewRand(11)
	l := NewLink(eng, cfg, NodeFunc(func(p *packet.Packet) {
		out.frames = append(out.frames, frame{p.PSN, p.Flags.Has(packet.FlagCE), firstHop(p), eng.Now()})
		p.Release()
	}))
	if v.remote {
		l.SetRemote(carried{&out.frames})
	}
	if v.hook != nil {
		l.AddHook(v.hook)
	}
	if v.disc != nil {
		l.queue.SetAQM(v.disc(), eng.Now)
	}
	var ops linkOps = l
	if ref {
		ops = &refLink{Link: l}
	}
	for _, a := range script {
		a := a
		eng.ScheduleAt(a.at, func() { a.do(ops) })
	}
	eng.RunAll()
	if l.armed {
		t.Errorf("%s: link still has its timer armed after the drain", v.name)
	}
	out.link, out.queue, out.events = l.Stats(), l.queue.Stats(), eng.Executed()
	if s := l.queue.AQMStats(); s != nil {
		out.aqm = *s
	}
	return out
}

// both plays the script on the link and on the reference and demands equal
// outcomes (event counts aside), returning the link's and the reference's.
func (v linkVariant) both(t *testing.T, script []action) (got, want outcome) {
	t.Helper()
	got, want = v.play(t, false, script), v.play(t, true, script)
	for i := range want.frames {
		if i >= len(got.frames) || got.frames[i] != want.frames[i] {
			t.Fatalf("%s: frame %d of %d/%d: link %+v, reference %+v", v.name, i, len(got.frames), len(want.frames), at(got.frames, i), want.frames[i])
		}
	}
	if len(got.frames) != len(want.frames) {
		t.Fatalf("%s: link delivered %d frames, reference %d", v.name, len(got.frames), len(want.frames))
	}
	if got.link != want.link || got.queue != want.queue || !reflect.DeepEqual(got.aqm, want.aqm) {
		t.Fatalf("%s: counters differ:\nlink      %+v %+v %+v\nreference %+v %+v %+v", v.name, got.link, got.queue, got.aqm, want.link, want.queue, want.aqm)
	}
	if got.events > want.events {
		t.Errorf("%s: link fired %d events, more than the reference's %d", v.name, got.events, want.events)
	}
	return got, want
}

func at(fs []frame, i int) any {
	if i < len(fs) {
		return fs[i]
	}
	return "nothing"
}

// dropOdd is a test discipline that head-drops every odd PSN at dequeue, so
// a queue holding only odd ones empties inside one Dequeue call.
type dropOdd struct{}

func (dropOdd) Name() string                { return "dropodd" }
func (dropOdd) Bands() int                  { return 1 }
func (dropOdd) Classify(*packet.Packet) int { return 0 }
func (dropOdd) OnEnqueue(*packet.Packet, int, aqm.QueueView, sim.Time) aqm.Decision {
	return aqm.Pass
}
func (dropOdd) OnDequeue(p *packet.Packet, _ int, _ sim.Duration, _ aqm.QueueView, _ sim.Time) aqm.Decision {
	if p.PSN%2 == 1 {
		return aqm.Drop
	}
	return aqm.Pass
}
func (dropOdd) PickBand(aqm.QueueView, sim.Time) int { return 0 }

func mustAQM(t *testing.T, src string) aqm.Spec {
	t.Helper()
	s, err := aqm.ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLinkMatchesReference drives the link and the two-events-a-frame
// reference with seeded scripts of arrivals (bursts that queue, gaps that
// idle the link), Pause/Resume, SetDown and SetRate, no two at one
// timestamp, and demands identical departures, deliveries, INT stamps and
// counters: on a plain link with jitter and a dropping hook, through CoDel
// head drops, through a discipline whose drops empty the queue, behind a
// tail-dropping shallow queue with step marking, and into a Remote.
func TestLinkMatchesReference(t *testing.T) {
	variants := []linkVariant{
		{name: "jitter+hook", cfg: LinkConfig{Rate: 100 * sim.Gbps, Delay: 2 * sim.Microsecond, Jitter: 300 * sim.Nanosecond},
			hook: func(p *packet.Packet) HookAction { return HookAction(p.PSN % 7 % 3) }},
		{name: "codel", cfg: LinkConfig{Rate: 100 * sim.Gbps, Delay: sim.Microsecond, QueueBytes: 1 << 20,
			AQM: mustAQM(t, "codel:target=500ns,interval=3us")}},
		{name: "dropodd", cfg: LinkConfig{Rate: 100 * sim.Gbps, Delay: sim.Microsecond}, disc: func() aqm.AQM { return dropOdd{} }},
		{name: "shallow", cfg: LinkConfig{Rate: 40 * sim.Gbps, Delay: 100 * sim.Nanosecond, QueueBytes: 8 << 10, ECN: StepMarking(3, 1024)}},
		{name: "remote", cfg: LinkConfig{Rate: 100 * sim.Gbps, Delay: 2 * sim.Microsecond}, remote: true},
	}
	rates := []sim.Rate{10 * sim.Gbps, 40 * sim.Gbps, 100 * sim.Gbps}
	for _, v := range variants {
		var saved, frames uint64
		for seed := uint64(1); seed <= 20; seed++ {
			rng := sim.NewRand(seed)
			var script []action
			now := sim.Time(0)
			paused, down := false, false
			for i := 0; i < 600; i++ {
				// Strictly increasing: no two actions share a timestamp.
				// Mostly sub-frame gaps, so queues build; sometimes long
				// ones, so the link idles (and timers go unarmed).
				gap := 1 + sim.Duration(rng.Uint64()%uint64(60*sim.Nanosecond))
				if rng.Uint64()%12 == 0 {
					gap = sim.Duration(rng.Uint64() % uint64(3*sim.Microsecond))
				}
				now = now.Add(gap)
				switch k := rng.Uint64() % 40; {
				case k < 2:
					if paused = !paused; paused {
						script = append(script, pauseAt(now))
					} else {
						script = append(script, resumeAt(now))
					}
				case k < 3:
					down = !down
					script = append(script, downAt(now, down))
				case k < 4:
					script = append(script, rateAt(now, rates[rng.Uint64()%3]))
				default:
					ect := packet.ECT0
					if rng.Uint64()%4 == 0 {
						ect = packet.NotECT // what CoDel head-drops
					}
					script = append(script, sendAt(now, uint32(i), 64+int(rng.Uint64()%1437), ect))
				}
			}
			script = append(script, resumeAt(now+1), downAt(now+2, false))
			got, want := v.both(t, script)
			if len(got.frames) < 50 {
				t.Fatalf("%s seed %d: only %d frames crossed the link", v.name, seed, len(got.frames))
			}
			frames += uint64(len(got.frames))
			saved += want.events - got.events
		}
		if saved == 0 {
			t.Errorf("%s: the link saved no events over the reference in %d frames", v.name, frames)
		}
	}
}

// TestLinkEdgeCases pins the frame-start rule — every frame starts at
// max(arrival, serializer free, resume/up) — where an event was removed:
// S is the wire time of the first frame.
func TestLinkEdgeCases(t *testing.T) {
	const size = 1000
	rate := 100 * sim.Gbps
	S := sim.Time(rate.Serialize(packet.WireSize(size)))
	v := linkVariant{cfg: LinkConfig{Rate: rate, Delay: sim.Microsecond}}
	odd := v
	odd.disc = func() aqm.AQM { return dropOdd{} }
	send := func(at sim.Time, psn uint32) action { return sendAt(at, psn, size, packet.ECT0) }
	cases := []struct {
		name    string
		v       linkVariant
		script  []action
		departs []sim.Time // by position in delivery order
		events  uint64     // fired by the link itself (script actions aside)
	}{
		{"alone: one event", v, []action{send(0, 0)}, []sim.Time{0}, 1},
		{"resume mid-frame, timer armed", v, []action{send(0, 0), send(S/4, 2), pauseAt(S / 2), resumeAt(3 * S / 4)}, []sim.Time{0, S}, 3},
		{"resume mid-frame, nothing armed", v, []action{send(0, 0), pauseAt(S / 2), send(5*S/8, 2), resumeAt(3 * S / 4)}, []sim.Time{0, S}, 3},
		{"resume after the frame", v, []action{send(0, 0), send(S/4, 2), pauseAt(S / 2), resumeAt(2 * S)}, []sim.Time{0, 2 * S}, 3},
		{"resume exactly at freeAt", v, []action{send(0, 0), send(S/4, 2), pauseAt(S / 2), resumeAt(S)}, []sim.Time{0, S}, 3},
		{"down with a timer armed", v, []action{send(0, 0), send(S/4, 2), downAt(S/2, true), send(3*S/2, 4), downAt(3*S, false)}, []sim.Time{0, 3 * S}, 3},
		{"down and up inside the frame", v, []action{send(0, 0), send(S/4, 2), downAt(S/2, true), downAt(3*S/4, false)}, []sim.Time{0, S}, 3},
		{"arrival exactly at freeAt", v, []action{send(0, 0), send(S, 2)}, []sim.Time{0, S}, 2},
		{"arrival at freeAt behind a queued one", v, []action{send(0, 0), send(S/2, 2), send(S, 4)}, []sim.Time{0, S, 2 * S}, 5},
		{"head drops empty the queue", odd, []action{send(0, 0), send(S/4, 1), send(S/2, 3), send(S+10, 2)}, []sim.Time{0, S + 10}, 3},
		{"head drop, then the next", odd, []action{send(0, 0), send(S/4, 1), send(S/2, 2), send(3*S/4, 4)}, []sim.Time{0, S, 2 * S}, 5},
		{"rate change mid-frame", v, []action{send(0, 0), send(S/4, 2), rateAt(S/2, 10*sim.Gbps), send(3*S/4, 4)}, []sim.Time{0, S, S + 10*S}, 5},
	}
	for _, c := range cases {
		c.v.name = c.name
		got, _ := c.v.both(t, c.script)
		var departs []sim.Time
		for _, f := range got.frames {
			departs = append(departs, f.stamp.TS)
		}
		if fmt.Sprint(departs) != fmt.Sprint(c.departs) {
			t.Errorf("%s: departures %v, want %v", c.name, departs, c.departs)
		}
		if own := got.events - uint64(len(c.script)); own != c.events {
			t.Errorf("%s: the link fired %d events of its own, want %d", c.name, own, c.events)
		}
	}
}
