package netem

import (
	"testing"

	"marlin/internal/packet"
	"marlin/internal/sim"
)

func TestPFCConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	q := NewQueue(10000, ECNConfig{})
	bad := []PFCConfig{
		{XOFF: 0, XON: 0},
		{XOFF: 100, XON: 100},   // XON >= XOFF
		{XOFF: 20000, XON: 100}, // XOFF beyond capacity
		{XOFF: 100, XON: -1},
	}
	for i, cfg := range bad {
		if _, err := NewPFC(eng, q, nil, cfg); err == nil {
			t.Errorf("bad PFC config %d accepted", i)
		}
	}
	if _, err := NewPFC(eng, q, nil, PFCConfig{XOFF: 5000, XON: 2500}); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestPFCPreventsDrops(t *testing.T) {
	// Two 10G senders into one 10G bottleneck with a small queue: without
	// PFC the queue drops; with PFC the upstream links pause and nothing
	// is lost.
	run := func(pfc bool) (drops, delivered uint64, pauses uint64) {
		eng := sim.NewEngine()
		var sink Sink
		bottleneck := NewLink(eng, LinkConfig{
			Rate: 10 * sim.Gbps, Delay: 1000, QueueBytes: 64 << 10,
		}, &sink)
		up1 := NewLink(eng, LinkConfig{Rate: 10 * sim.Gbps, Delay: 1000, QueueBytes: 4 << 20}, bottleneck)
		up2 := NewLink(eng, LinkConfig{Rate: 10 * sim.Gbps, Delay: 1000, QueueBytes: 4 << 20}, bottleneck)
		var ctl *PFC
		if pfc {
			var err error
			ctl, err = NewPFC(eng, bottleneck.Queue(), []*Link{up1, up2}, PFCConfig{
				XOFF: 32 << 10, XON: 16 << 10,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 500; i++ {
			up1.Send(data(1, uint32(i), 1024))
			up2.Send(data(2, uint32(i), 1024))
		}
		eng.RunAll()
		if ctl != nil {
			pauses = ctl.Pauses()
		}
		return bottleneck.Queue().Stats().Drops, sink.Packets, pauses
	}

	drops, _, _ := run(false)
	if drops == 0 {
		t.Fatal("baseline without PFC did not drop (test not stressing the queue)")
	}
	drops, delivered, pauses := run(true)
	if drops != 0 {
		t.Fatalf("PFC enabled but bottleneck dropped %d packets", drops)
	}
	if delivered != 1000 {
		t.Fatalf("delivered %d packets, want all 1000", delivered)
	}
	if pauses == 0 {
		t.Fatal("PFC never paused despite 2:1 overload")
	}
}

func TestPFCResumesAfterDrain(t *testing.T) {
	eng := sim.NewEngine()
	var sink Sink
	bottleneck := NewLink(eng, LinkConfig{Rate: sim.Gbps, Delay: 100, QueueBytes: 64 << 10}, &sink)
	up := NewLink(eng, LinkConfig{Rate: 10 * sim.Gbps, Delay: 100, QueueBytes: 4 << 20}, bottleneck)
	ctl, err := NewPFC(eng, bottleneck.Queue(), []*Link{up}, PFCConfig{XOFF: 16 << 10, XON: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		up.Send(data(1, uint32(i), 1024))
	}
	eng.RunAll()
	if sink.Packets != 100 {
		t.Fatalf("delivered %d/100 — pause never released", sink.Packets)
	}
	if ctl.Paused() {
		t.Fatal("controller still asserting pause after drain")
	}
	if !(ctl.Pauses() >= 1) {
		t.Fatal("no pause episode recorded")
	}
}

func TestLinkPauseResumeDirect(t *testing.T) {
	eng := sim.NewEngine()
	var sink Sink
	l := NewLink(eng, LinkConfig{Rate: sim.Gbps, QueueBytes: 1 << 20}, &sink)
	l.Pause()
	l.Send(data(1, 0, 1000))
	eng.RunAll()
	if sink.Packets != 0 {
		t.Fatal("paused link transmitted")
	}
	if !l.Paused() {
		t.Fatal("Paused() false")
	}
	l.Resume()
	eng.RunAll()
	if sink.Packets != 1 {
		t.Fatal("resume did not restart the drain")
	}
}

func TestINTStamping(t *testing.T) {
	eng := sim.NewEngine()
	var got *packet.Packet
	hop2 := NewLink(eng, LinkConfig{Rate: 100 * sim.Gbps, Delay: 500, EnableINT: true},
		NodeFunc(func(p *packet.Packet) { got = p }))
	hop1 := NewLink(eng, LinkConfig{Rate: 100 * sim.Gbps, Delay: 500, EnableINT: true}, hop2)
	hop1.Send(data(1, 0, 1024))
	hop1.Send(data(1, 1, 1024)) // queued behind the first
	eng.RunAll()
	if got == nil || got.INT == nil || got.INT.NHops != 2 {
		t.Fatalf("INT stack = %+v, want 2 hops", got)
	}
	for j := 0; j < 2; j++ {
		h := got.INT.Hops[j]
		if h.Rate != 100*sim.Gbps {
			t.Fatalf("hop %d rate = %v", j, h.Rate)
		}
		if h.TxBytes == 0 {
			t.Fatalf("hop %d txBytes = 0 for the second packet", j)
		}
	}
}

func TestINTSkipsControlPackets(t *testing.T) {
	eng := sim.NewEngine()
	var got *packet.Packet
	l := NewLink(eng, LinkConfig{Rate: sim.Gbps, EnableINT: true},
		NodeFunc(func(p *packet.Packet) { got = p }))
	l.Send(packet.NewSche(1, 0, 0, 0))
	eng.RunAll()
	if got.INT != nil {
		t.Fatal("INT stamped on a control packet")
	}
}

func TestINTStackBounded(t *testing.T) {
	var rec packet.INTRecord
	for i := 0; i < packet.MaxINTHops; i++ {
		if !rec.Push(packet.INTHop{Rate: sim.Gbps}) {
			t.Fatalf("push %d rejected below the cap", i)
		}
	}
	if rec.Push(packet.INTHop{}) {
		t.Fatal("push beyond MaxINTHops accepted")
	}
	if rec.NHops != packet.MaxINTHops {
		t.Fatalf("NHops = %d", rec.NHops)
	}
}

// twoSwitchChain wires host uplinks -> S1 -> trunk -> S2 with two S2
// egress ports: port 0 slow (the congestion point) and port 1 fast. PFC
// controllers watch the slow queue (pausing the trunk) and the trunk
// queue (pausing the host uplinks), so backpressure must travel two hops.
type twoSwitchChain struct {
	eng        *sim.Engine
	upA, upB   *Link
	trunk      *Link
	slow, fast *Link
	ctlSlow    *PFC // slow egress queue -> pauses trunk
	ctlTrunk   *PFC // trunk queue -> pauses host uplinks
}

func newTwoSwitchChain(t *testing.T, slowRate sim.Rate, dstA, dstB Node) *twoSwitchChain {
	t.Helper()
	c := &twoSwitchChain{eng: sim.NewEngine()}
	s2 := NewSwitch("s2", RouteByFlowTable(map[packet.FlowID]int{1: 0, 2: 1}))
	s2.AddPort(c.eng, LinkConfig{Rate: slowRate, Delay: 1000, QueueBytes: 256 << 10}, dstA)
	s2.AddPort(c.eng, LinkConfig{Rate: 10 * sim.Gbps, Delay: 1000, QueueBytes: 256 << 10}, dstB)
	s1 := NewSwitch("s1", RouteAllTo(0))
	s1.AddPort(c.eng, LinkConfig{Rate: 10 * sim.Gbps, Delay: 1000, QueueBytes: 256 << 10}, s2)
	c.trunk = s1.Port(0)
	c.slow, c.fast = s2.Port(0), s2.Port(1)
	c.upA = NewLink(c.eng, LinkConfig{Rate: 10 * sim.Gbps, Delay: 1000, QueueBytes: 4 << 20}, s1)
	c.upB = NewLink(c.eng, LinkConfig{Rate: 10 * sim.Gbps, Delay: 1000, QueueBytes: 4 << 20}, s1)
	var err error
	c.ctlSlow, err = NewPFC(c.eng, c.slow.Queue(), []*Link{c.trunk}, PFCConfig{XOFF: 32 << 10, XON: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	c.ctlTrunk, err = NewPFC(c.eng, c.trunk.Queue(), []*Link{c.upA, c.upB}, PFCConfig{XOFF: 32 << 10, XON: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *twoSwitchChain) drops() uint64 {
	var n uint64
	for _, l := range []*Link{c.upA, c.upB, c.trunk, c.slow, c.fast} {
		n += l.Queue().Stats().Drops
	}
	return n
}

// TestPFCPausePropagatesAcrossTwoSwitches: congestion at the second
// switch's slow egress must pause the inter-switch trunk, whose backlog
// must in turn pause the host uplinks — and nothing may drop anywhere.
func TestPFCPausePropagatesAcrossTwoSwitches(t *testing.T) {
	var sinkA, sinkB Sink
	c := newTwoSwitchChain(t, sim.Gbps, &sinkA, &sinkB)
	for i := 0; i < 400; i++ {
		c.upA.Send(data(1, uint32(i), 1024))
	}
	c.eng.RunAll()
	if sinkA.Packets != 400 {
		t.Fatalf("delivered %d/400 through the paused chain", sinkA.Packets)
	}
	if got := c.drops(); got != 0 {
		t.Fatalf("lossless chain dropped %d packets", got)
	}
	if c.ctlSlow.Pauses() == 0 {
		t.Fatal("slow egress never paused the trunk")
	}
	if c.ctlTrunk.Pauses() == 0 {
		t.Fatal("pause did not propagate: trunk backlog never paused the host uplinks")
	}
	if c.ctlSlow.Paused() || c.ctlTrunk.Paused() {
		t.Fatal("controllers still assert pause after full drain")
	}
}

// TestPFCHeadOfLineBlocking: flow 2's path (fast egress) is uncongested,
// but PFC pausing the shared trunk for flow 1's congested egress parks
// flow 2's packets behind it — the classic HOL-blocking cost of
// losslessness, measured as delayed completion of the victim flow.
func TestPFCHeadOfLineBlocking(t *testing.T) {
	run := func(withAggressor bool) (victimDone sim.Time, drops uint64) {
		var sinkA Sink
		var done sim.Time
		var got uint64
		var c *twoSwitchChain
		victim := NodeFunc(func(p *packet.Packet) {
			got++
			done = c.eng.Now()
		})
		c = newTwoSwitchChain(t, sim.Gbps, &sinkA, victim)
		if withAggressor {
			for i := 0; i < 400; i++ {
				c.upA.Send(data(1, uint32(i), 1024))
			}
		}
		for i := 0; i < 100; i++ {
			c.upB.Send(data(2, uint32(i), 1024))
		}
		c.eng.RunAll()
		if got != 100 {
			t.Fatalf("victim delivered %d/100", got)
		}
		return done, c.drops()
	}

	alone, drops := run(false)
	if drops != 0 {
		t.Fatalf("uncongested run dropped %d", drops)
	}
	blocked, drops := run(true)
	if drops != 0 {
		t.Fatalf("PFC run dropped %d", drops)
	}
	if blocked < 2*alone {
		t.Fatalf("no head-of-line blocking: victim finished at %v vs %v alone", blocked, alone)
	}
}
