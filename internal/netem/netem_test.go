package netem

import (
	"testing"
	"testing/quick"

	"marlin/internal/packet"
	"marlin/internal/sim"
)

func data(flow packet.FlowID, psn uint32, size int) *packet.Packet {
	return packet.NewData(flow, psn, size, 0)
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(1<<20, ECNConfig{})
	for i := 0; i < 10; i++ {
		if !q.Enqueue(data(1, uint32(i), 100)) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	if q.Len() != 10 || q.Bytes() != 1000 {
		t.Fatalf("Len=%d Bytes=%d", q.Len(), q.Bytes())
	}
	for i := 0; i < 10; i++ {
		p := q.Dequeue()
		if p == nil || p.PSN != uint32(i) {
			t.Fatalf("dequeue %d: got %v", i, p)
		}
	}
	if q.Dequeue() != nil {
		t.Fatal("dequeue on empty queue returned a packet")
	}
}

func TestQueueDropTail(t *testing.T) {
	q := NewQueue(250, ECNConfig{})
	if !q.Enqueue(data(1, 0, 100)) || !q.Enqueue(data(1, 1, 100)) {
		t.Fatal("initial packets rejected")
	}
	if q.Enqueue(data(1, 2, 100)) {
		t.Fatal("over-capacity packet admitted")
	}
	st := q.Stats()
	if st.Drops != 1 || st.DropBytes != 100 {
		t.Fatalf("drop stats = %+v", st)
	}
}

func TestQueueCompaction(t *testing.T) {
	q := NewQueue(1<<24, ECNConfig{})
	// Interleave enough enqueue/dequeue cycles to trigger compaction and
	// verify FIFO order survives it.
	next := uint32(0)
	want := uint32(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < 40; i++ {
			q.Enqueue(data(1, next, 64))
			next++
		}
		for i := 0; i < 35; i++ {
			p := q.Dequeue()
			if p == nil || p.PSN != want {
				t.Fatalf("round %d: got PSN %v, want %d", round, p, want)
			}
			want++
		}
	}
	for {
		p := q.Dequeue()
		if p == nil {
			break
		}
		if p.PSN != want {
			t.Fatalf("tail drain: got %d, want %d", p.PSN, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d packets, enqueued %d", want, next)
	}
}

// A band rewinds to the front of its array whenever it empties, so a
// lightly loaded queue's array grows with its peak depth, not with the
// packets that pass through it; a backlog that never drains still
// compacts. Order, Len and Bytes stay right through drain, refill and
// compaction.
func TestQueueRewindsWhenEmpty(t *testing.T) {
	q := NewQueue(1<<24, ECNConfig{})
	var model []*packet.Packet // the expected backlog, head first
	bytes := 0
	next := uint32(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			p := data(1, next, 64+int(next%7)*100)
			next++
			if !q.Enqueue(p) {
				t.Fatalf("enqueue of PSN %d rejected", p.PSN)
			}
			model = append(model, p)
			bytes += p.Size
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			p := q.Dequeue()
			if p == nil || p != model[0] {
				t.Fatalf("dequeued %v, want PSN %d", p, model[0].PSN)
			}
			model = model[1:]
			bytes -= p.Size
			if q.Len() != len(model) || q.Bytes() != bytes {
				t.Fatalf("after PSN %d: Len %d Bytes %d, want %d %d", p.PSN, q.Len(), q.Bytes(), len(model), bytes)
			}
			p.Release()
		}
	}
	band := &q.bands[0]

	for round := 0; round < 1000; round++ { // light load: three deep at most
		push(3)
		pop(3)
		if band.head != 0 || len(band.buf) != 0 {
			t.Fatalf("round %d: an empty band holds head %d, len %d", round, band.head, len(band.buf))
		}
	}
	if c := cap(band.buf); c != firstSlots || &band.buf[:1][0] != &band.first[0] {
		t.Fatalf("3,000 packets three deep moved the band to an array of %d slots, want its own %d", c, firstSlots)
	}

	for round := 0; round < 50; round++ { // a backlog that never drains
		push(40)
		pop(35)
	}
	if len(band.buf) > 2*len(model)+64 {
		t.Fatalf("standing backlog of %d packets holds %d slots: no compaction", len(model), len(band.buf))
	}
	pop(len(model))
	if q.Dequeue() != nil || band.head != 0 || len(band.buf) != 0 {
		t.Fatalf("drained band holds head %d, len %d", band.head, len(band.buf))
	}
	push(10) // refill from the front of the kept array
	pop(10)
}

func TestQueueStepMarking(t *testing.T) {
	// Step marking at K = 2 packets of 100B: the third and later arrivals
	// see backlog >= 200 and get CE.
	q := NewQueue(1<<20, StepMarking(2, 100))
	var marked int
	for i := 0; i < 5; i++ {
		p := data(1, uint32(i), 100)
		q.Enqueue(p)
		if p.Flags.Has(packet.FlagCE) {
			marked++
		}
	}
	if marked != 3 {
		t.Fatalf("marked %d packets, want 3 (arrivals seeing backlog >= K)", marked)
	}
}

func TestQueueMarkingSkipsNonECT(t *testing.T) {
	q := NewQueue(1<<20, StepMarking(0, 1))
	p := &packet.Packet{Type: packet.DATA, Size: 100} // no FlagECNCapable
	q.Enqueue(p)
	if p.Flags.Has(packet.FlagCE) {
		t.Fatal("non-ECT packet was CE-marked")
	}
}

func TestLinkDeliversWithSerializationAndDelay(t *testing.T) {
	eng := sim.NewEngine()
	var arrived sim.Time
	sink := NodeFunc(func(p *packet.Packet) { arrived = eng.Now() })
	l := NewLink(eng, LinkConfig{Rate: 100 * sim.Gbps, Delay: 1000}, sink)
	l.Send(data(1, 0, 1024))
	eng.RunAll()
	want := sim.Time(83520 + 1000) // (1024+20)B wire at 100G, plus delay
	if arrived != want {
		t.Fatalf("arrival at %v, want %v", arrived, want)
	}
}

func TestLinkBackToBackSerialization(t *testing.T) {
	eng := sim.NewEngine()
	var arrivals []sim.Time
	sink := NodeFunc(func(p *packet.Packet) { arrivals = append(arrivals, eng.Now()) })
	l := NewLink(eng, LinkConfig{Rate: 100 * sim.Gbps}, sink)
	l.Send(data(1, 0, 1024))
	l.Send(data(1, 1, 1024))
	l.Send(data(1, 2, 1024))
	eng.RunAll()
	if len(arrivals) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(arrivals))
	}
	for i := 1; i < 3; i++ {
		gap := arrivals[i] - arrivals[i-1]
		if gap != 83520 {
			t.Fatalf("gap %d->%d = %v ps, want 83520 (full wire serialization)", i-1, i, gap)
		}
	}
}

func TestLinkIdleRestart(t *testing.T) {
	eng := sim.NewEngine()
	n := 0
	sink := NodeFunc(func(p *packet.Packet) { n++ })
	l := NewLink(eng, LinkConfig{Rate: 100 * sim.Gbps}, sink)
	l.Send(data(1, 0, 1024))
	eng.RunAll()
	l.Send(data(1, 1, 1024))
	eng.RunAll()
	if n != 2 {
		t.Fatalf("delivered %d packets after idle restart, want 2", n)
	}
}

func TestLinkThroughputAtLineRate(t *testing.T) {
	eng := sim.NewEngine()
	var rxBytes uint64
	sink := NodeFunc(func(p *packet.Packet) { rxBytes += uint64(p.Size) })
	l := NewLink(eng, LinkConfig{Rate: 10 * sim.Gbps, QueueBytes: 1 << 30}, sink)
	const n = 1000
	for i := 0; i < n; i++ {
		l.Send(data(1, uint32(i), 1500))
	}
	eng.RunAll()
	elapsed := eng.Now().Seconds()
	gbps := float64(rxBytes) * 8 / elapsed / 1e9
	if gbps < 9.8 || gbps > 9.9 {
		t.Fatalf("drained at %.3f Gbps of frame bytes, want ~9.87 (wire overhead excluded)", gbps)
	}
}

func TestLinkHookDropAndMark(t *testing.T) {
	eng := sim.NewEngine()
	var got []*packet.Packet
	sink := NodeFunc(func(p *packet.Packet) { got = append(got, p) })
	l := NewLink(eng, LinkConfig{Rate: sim.Gbps}, sink)
	l.AddHook(func(p *packet.Packet) HookAction {
		switch p.PSN {
		case 1:
			return Drop
		case 2:
			return MarkCE
		}
		return Pass
	})
	for i := 0; i < 3; i++ {
		l.Send(data(1, uint32(i), 100))
	}
	eng.RunAll()
	if len(got) != 2 {
		t.Fatalf("delivered %d, want 2", len(got))
	}
	if got[1].PSN != 2 || !got[1].Flags.Has(packet.FlagCE) {
		t.Fatalf("hook did not mark PSN 2: %+v", got[1])
	}
	st := l.Stats()
	if st.InjectedDrops != 1 || st.InjectedMarks != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLinkSetDownHoldsQueueDropsArrivals(t *testing.T) {
	eng := sim.NewEngine()
	got := 0
	sink := NodeFunc(func(p *packet.Packet) { got++; p.Release() })
	l := NewLink(eng, LinkConfig{Rate: sim.Gbps, QueueBytes: 1 << 20}, sink)
	for i := 0; i < 5; i++ {
		l.Send(data(1, uint32(i), 1000))
	}
	// The first frame is already in flight when the carrier drops; the rest
	// are held in the upstream buffer, not flushed.
	l.SetDown(true)
	eng.RunAll()
	if got != 1 {
		t.Fatalf("delivered %d while down, want 1 (in-flight frame only)", got)
	}
	if l.Queue().Len() != 4 {
		t.Fatalf("queue holds %d, want 4 (down holds queued frames)", l.Queue().Len())
	}
	// Arrivals during the outage are carrier losses.
	l.Send(data(1, 9, 1000))
	l.Send(data(1, 10, 1000))
	if st := l.Stats(); st.DownDrops != 2 {
		t.Fatalf("DownDrops = %d, want 2", st.DownDrops)
	}
	if !l.Down() {
		t.Fatal("Down() = false while down")
	}
	l.SetDown(false)
	eng.RunAll()
	if got != 5 {
		t.Fatalf("delivered %d after recovery, want 5 (held frames drain)", got)
	}
}

func TestLinkDownAndPauseIndependent(t *testing.T) {
	// A link both PFC-paused and down must not restart until BOTH clear.
	eng := sim.NewEngine()
	got := 0
	sink := NodeFunc(func(p *packet.Packet) { got++; p.Release() })
	l := NewLink(eng, LinkConfig{Rate: sim.Gbps, QueueBytes: 1 << 20}, sink)
	l.Pause()
	l.SetDown(true)
	l.Send(data(1, 0, 1000)) // down wins: carrier loss
	l.SetDown(false)
	l.Send(data(1, 1, 1000)) // queued behind the pause
	eng.RunAll()
	if got != 0 {
		t.Fatalf("delivered %d while paused, want 0", got)
	}
	l.Resume()
	eng.RunAll()
	if got != 1 {
		t.Fatalf("delivered %d after resume, want 1", got)
	}
	if st := l.Stats(); st.DownDrops != 1 {
		t.Fatalf("DownDrops = %d, want 1", st.DownDrops)
	}
}

func TestLinkSetRateBrownout(t *testing.T) {
	eng := sim.NewEngine()
	var arrivals []sim.Time
	sink := NodeFunc(func(p *packet.Packet) { arrivals = append(arrivals, eng.Now()); p.Release() })
	l := NewLink(eng, LinkConfig{Rate: 100 * sim.Gbps}, sink)
	l.Send(data(1, 0, 1024))
	l.Send(data(1, 1, 1024))
	eng.RunAll()
	l.SetRate(10 * sim.Gbps) // brownout to a tenth
	l.Send(data(1, 2, 1024))
	l.Send(data(1, 3, 1024))
	eng.RunAll()
	if len(arrivals) != 4 {
		t.Fatalf("delivered %d, want 4", len(arrivals))
	}
	if gap := arrivals[1] - arrivals[0]; gap != 83520 {
		t.Fatalf("pre-brownout gap = %v ps, want 83520", gap)
	}
	if gap := arrivals[3] - arrivals[2]; gap != 835200 {
		t.Fatalf("brownout gap = %v ps, want 835200 (10x slower)", gap)
	}
	if l.Rate() != 10*sim.Gbps {
		t.Fatalf("Rate() = %v after SetRate", l.Rate())
	}
}

func TestQueueSuppressMarking(t *testing.T) {
	// StepMarking(0, 1) marks every ECT arrival; suppression must win
	// without disturbing the configured thresholds.
	q := NewQueue(1<<20, StepMarking(0, 1))
	q.SuppressMarking(true)
	p := data(1, 0, 100)
	q.Enqueue(p)
	if p.Flags.Has(packet.FlagCE) {
		t.Fatal("suppressed queue still marked CE")
	}
	if q.Stats().ECNMarks != 0 {
		t.Fatalf("ECNMarks = %d with marking suppressed", q.Stats().ECNMarks)
	}
	q.SuppressMarking(false)
	p2 := data(1, 1, 100)
	q.Enqueue(p2)
	if !p2.Flags.Has(packet.FlagCE) {
		t.Fatal("marking did not resume after suppression cleared")
	}
}

// TestPoolOwnershipDownedAndPausedPaths audits the pool ownership rule on
// the fault paths: every packet sent into a downed link or queued behind a
// PFC-paused port must be Released exactly once — by the link on a carrier
// loss, by the sink on eventual delivery. Runs under -race in CI.
func TestPoolOwnershipDownedAndPausedPaths(t *testing.T) {
	pool := new(packet.Pool)

	eng := sim.NewEngine()
	delivered := 0
	sink := NodeFunc(func(p *packet.Packet) { delivered++; p.Release() })
	l := NewLink(eng, LinkConfig{Rate: sim.Gbps, QueueBytes: 1 << 20}, sink)

	// Carrier-loss path: the link owns and Releases every arrival.
	l.SetDown(true)
	for i := 0; i < 50; i++ {
		l.Send(pool.NewData(1, uint32(i), 500, 0))
	}
	eng.RunAll()
	if n, _ := packet.Outstanding(pool); n != 0 {
		t.Fatalf("downed link leaked %d packets", n)
	}

	// Hold-then-recover path: queued frames survive the outage and drain.
	l.SetDown(false)
	for i := 0; i < 50; i++ {
		l.Send(pool.NewData(1, uint32(i), 500, 0))
	}
	l.SetDown(true)
	eng.RunAll()
	l.SetDown(false)
	eng.RunAll()
	if n, _ := packet.Outstanding(pool); n != 0 {
		t.Fatalf("down/up cycle leaked %d packets (delivered %d)", n, delivered)
	}

	// PFC path: a fast feeder into a slow bottleneck; the PFC controller
	// pauses the feeder and every queued packet must still drain.
	bottleneck := NewLink(eng, LinkConfig{Rate: sim.Gbps, QueueBytes: 100 << 10}, sink)
	feeder := NewLink(eng, LinkConfig{Rate: 100 * sim.Gbps, QueueBytes: 1 << 20}, bottleneck)
	pfc, err := NewPFC(eng, bottleneck.Queue(), []*Link{feeder}, PFCConfig{XOFF: 10 << 10, XON: 5 << 10})
	if err != nil {
		t.Fatal(err)
	}
	before := delivered
	for i := 0; i < 100; i++ {
		feeder.Send(pool.NewData(2, uint32(i), 1000, 0))
	}
	eng.RunAll()
	if pfc.Pauses() == 0 {
		t.Fatal("PFC never engaged; the paused path was not exercised")
	}
	if delivered-before != 100 {
		t.Fatalf("delivered %d of 100 through the paused path", delivered-before)
	}
	if n, _ := packet.Outstanding(pool); n != 0 {
		t.Fatalf("PFC pause path leaked %d packets", n)
	}
}

func TestSwitchRouting(t *testing.T) {
	eng := sim.NewEngine()
	var a, b Sink
	sw := NewSwitch("s", RouteByFlowTable(map[packet.FlowID]int{1: 0, 2: 1}))
	sw.AddPort(eng, LinkConfig{Rate: sim.Gbps}, &a)
	sw.AddPort(eng, LinkConfig{Rate: sim.Gbps}, &b)
	sw.Receive(data(1, 0, 100))
	sw.Receive(data(2, 0, 100))
	sw.Receive(data(3, 0, 100)) // unknown: dropped
	eng.RunAll()
	if a.Packets != 1 || b.Packets != 1 {
		t.Fatalf("a=%d b=%d, want 1 each", a.Packets, b.Packets)
	}
	if sw.Unrouted() != 1 {
		t.Fatalf("unrouted = %d, want 1", sw.Unrouted())
	}
	if sw.RxPackets() != 3 {
		t.Fatalf("rx = %d, want 3", sw.RxPackets())
	}
}

func TestSwitchFanInCongestionMarks(t *testing.T) {
	// Many senders into one ECN-marked bottleneck port must generate CE.
	eng := sim.NewEngine()
	var out Sink
	sw := NewSwitch("bottleneck", RouteAllTo(0))
	sw.AddPort(eng, LinkConfig{
		Rate: sim.Gbps, ECN: StepMarking(5, 1000), QueueBytes: 1 << 20,
	}, &out)
	for i := 0; i < 100; i++ {
		sw.Receive(data(packet.FlowID(i%4), uint32(i), 1000))
	}
	eng.RunAll()
	if out.Packets != 100 {
		t.Fatalf("delivered %d, want 100", out.Packets)
	}
	if sw.Port(0).Queue().Stats().ECNMarks == 0 {
		t.Fatal("fan-in produced no CE marks")
	}
}

func TestScriptDropOnceAllowsRetransmit(t *testing.T) {
	s := NewScript().DropOnce(1, 5)
	p := data(1, 5, 100)
	if s.Hook(p) != Drop {
		t.Fatal("first pass not dropped")
	}
	rtx := data(1, 5, 100)
	rtx.Flags |= packet.FlagRetransmit
	if s.Hook(rtx) != Pass {
		t.Fatal("retransmission dropped")
	}
	if s.Hook(data(1, 5, 100)) != Pass {
		t.Fatal("second original pass dropped (one-shot violated)")
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", s.Pending())
	}
}

func TestScriptMarkRange(t *testing.T) {
	s := NewScript().MarkRange(1, 10, 12)
	for psn := uint32(9); psn <= 13; psn++ {
		act := s.Hook(data(1, psn, 100))
		want := Pass
		if psn >= 10 && psn <= 12 {
			want = MarkCE
		}
		if act != want {
			t.Fatalf("psn %d: action %v, want %v", psn, act, want)
		}
	}
	if s.Hook(&packet.Packet{Type: packet.ACK, Flow: 1, PSN: 11}) != Pass {
		t.Fatal("script acted on a non-DATA packet")
	}
}

func TestScriptDropInsideMarkedRangeSkipsRetransmit(t *testing.T) {
	// Regression: a PSN dropped by DropOnce inside a MarkRange span comes
	// back as a retransmission. The retransmit must sail through unmarked —
	// the mark entry binds to the original transmission only — otherwise the
	// injection couples to the CC algorithm's recovery behavior.
	s := NewScript().DropOnce(1, 5).MarkRange(1, 3, 7)
	if act := s.Hook(data(1, 5, 100)); act != Drop {
		t.Fatalf("original PSN 5: action %v, want Drop", act)
	}
	rtx := data(1, 5, 100)
	rtx.Flags |= packet.FlagRetransmit
	if act := s.Hook(rtx); act != Pass {
		t.Fatalf("retransmitted PSN 5: action %v, want Pass (mark must not fire)", act)
	}
	// Other retransmits in the marked range are exempt too.
	rtx6 := data(1, 6, 100)
	rtx6.Flags |= packet.FlagRetransmit
	if act := s.Hook(rtx6); act != Pass {
		t.Fatalf("retransmitted PSN 6: action %v, want Pass", act)
	}
	// Surrounding originals still get marked exactly once.
	for _, psn := range []uint32{3, 4, 6, 7} {
		if act := s.Hook(data(1, psn, 100)); act != MarkCE {
			t.Fatalf("original PSN %d: action %v, want MarkCE", psn, act)
		}
	}
	// The PSN-5 mark was never consumed: its only original transmission was
	// claimed by the drop entry, and the retransmission is exempt. Exactly
	// one mark entry stays pending.
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (unconsumed mark for the dropped PSN)", s.Pending())
	}
}

func TestQuickQueueConservation(t *testing.T) {
	// Property: packets out + packets dropped == packets in, and byte
	// accounting matches, for arbitrary enqueue/dequeue interleavings.
	f := func(ops []byte) bool {
		q := NewQueue(4096, ECNConfig{})
		var in, out, drop int
		psn := uint32(0)
		for _, op := range ops {
			if op%3 == 0 {
				if q.Dequeue() != nil {
					out++
				}
			} else {
				size := int(op)%1000 + 64
				in++
				if !q.Enqueue(data(1, psn, size)) {
					drop++
				}
				psn++
			}
		}
		return in == out+drop+q.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLinkForward(b *testing.B) {
	eng := sim.NewEngine()
	sink := NodeFunc(func(p *packet.Packet) {})
	l := NewLink(eng, LinkConfig{Rate: 100 * sim.Gbps, QueueBytes: 1 << 30}, sink)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Send(data(1, uint32(i), 1024))
		if i%1024 == 1023 {
			eng.RunAll()
		}
	}
	eng.RunAll()
}

func TestSwitchMisrouteCountedNotPanic(t *testing.T) {
	// A routing function pointing at a port the switch does not have is a
	// table bug; in a programmatically routed fabric it must surface as a
	// counted misroute in the loss report, not a panic.
	eng := sim.NewEngine()
	var out Sink
	sw := NewSwitch("s", RouteAllTo(7))
	sw.AddPort(eng, LinkConfig{Rate: sim.Gbps}, &out)
	sw.Receive(data(1, 0, 100))
	sw.Receive(data(1, 1, 100))
	eng.RunAll()
	if out.Packets != 0 {
		t.Fatalf("misrouted packets delivered: %d", out.Packets)
	}
	if sw.Misroutes() != 2 {
		t.Fatalf("misroutes = %d, want 2", sw.Misroutes())
	}
	if sw.Unrouted() != 0 {
		t.Fatalf("misroutes counted as unrouted: %d", sw.Unrouted())
	}
	if st := sw.Stats(); st.Misroutes != 2 {
		t.Fatalf("Stats().Misroutes = %d, want 2", st.Misroutes)
	}
}

func TestSwitchPerPortCounters(t *testing.T) {
	eng := sim.NewEngine()
	var a, b Sink
	sw := NewSwitch("s", RouteByFlowTable(map[packet.FlowID]int{1: 0, 2: 1}))
	sw.AddPort(eng, LinkConfig{Rate: sim.Gbps}, &a)
	// Flow 1 arrives on ingress port 0, flow 2 on ingress port 1. Port 0's
	// node is taken before the second AddPort grows the switch's arrays.
	in0 := sw.PortIn(0)
	sw.AddPort(eng, LinkConfig{Rate: sim.Gbps}, &b)
	in1 := sw.PortIn(1)
	for i := 0; i < 3; i++ {
		in0.Receive(data(1, uint32(i), 100))
	}
	in1.Receive(data(2, 0, 200))
	eng.RunAll()
	p0, p1 := sw.PortCounters(0), sw.PortCounters(1)
	if p0.RxPackets != 3 || p0.RxBytes != 300 {
		t.Fatalf("port 0 rx = %+v", p0)
	}
	if p0.TxPackets != 3 || p0.TxBytes != 300 {
		t.Fatalf("port 0 tx = %+v", p0)
	}
	if p1.RxPackets != 1 || p1.RxBytes != 200 || p1.TxPackets != 1 || p1.TxBytes != 200 {
		t.Fatalf("port 1 = %+v", p1)
	}
	st := sw.Stats()
	if st.Name != "s" || len(st.Ports) != 2 {
		t.Fatalf("Stats() = %+v", st)
	}
	if st.Ports[0].TxPackets != 3 || st.Ports[1].RxBytes != 200 {
		t.Fatalf("Stats().Ports = %+v", st.Ports)
	}
}

func TestSwitchStatsExposeQueueState(t *testing.T) {
	eng := sim.NewEngine()
	var out Sink
	sw := NewSwitch("s", RouteAllTo(0))
	sw.AddPort(eng, LinkConfig{Rate: sim.Gbps, QueueBytes: 1 << 20}, &out)
	for i := 0; i < 10; i++ {
		sw.Receive(data(1, uint32(i), 1000))
	}
	// Before the engine runs, all but the in-flight packet sit queued.
	st := sw.Stats()
	if st.Ports[0].QueuePkts == 0 || st.Ports[0].QueueBytes == 0 {
		t.Fatalf("queue state not visible: %+v", st.Ports[0])
	}
	sw.Port(0).Pause()
	if !sw.Stats().Ports[0].Paused {
		t.Fatal("pause state not visible in Stats")
	}
	sw.Port(0).Resume()
	eng.RunAll()
}
