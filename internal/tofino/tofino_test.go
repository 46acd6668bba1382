package tofino

import (
	"testing"
	"testing/quick"

	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/race"
	"marlin/internal/sim"
)

func TestPlanMTU1024Gives12PortsAnd1200G(t *testing.T) {
	p, err := NewPlan(1024, 100*sim.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	if f := p.AmplificationFactor(); f != 12 {
		t.Fatalf("amplification at MTU 1024 = %d, want 12 (§3.3)", f)
	}
	if p.DataPorts != 12 {
		t.Fatalf("data ports = %d, want 12", p.DataPorts)
	}
	if p.Throughput != 1200*sim.Gbps {
		t.Fatalf("throughput = %v, want 1.2Tbps", p.Throughput)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanMTU1518Amplifies18ButPortLimited(t *testing.T) {
	p, err := NewPlan(1518, 100*sim.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	if f := p.AmplificationFactor(); f != 18 {
		t.Fatalf("amplification at MTU 1518 = %d, want 18 (§3.3)", f)
	}
	if p.IdealThroughput() != 1800*sim.Gbps {
		t.Fatalf("ideal = %v, want 1.8Tbps", p.IdealThroughput())
	}
	// One pipeline has 16 ports; 3 are overhead, so 13 data ports max.
	if p.DataPorts != 13 {
		t.Fatalf("data ports = %d, want 13 (port-budget limited)", p.DataPorts)
	}
	if p.Throughput != 1300*sim.Gbps {
		t.Fatalf("throughput = %v, want 1.3Tbps (§4.3)", p.Throughput)
	}
}

func TestPlanMTU1072Boundary(t *testing.T) {
	// §4.3: "when the MTU is greater than 1072 bytes, 100 Gbps SCHE
	// packets can generate 1.3 Tbps of DATA traffic".
	p, _ := NewPlan(1073, 100*sim.Gbps)
	if p.AmplificationFactor() < 13 {
		t.Fatalf("amplification at MTU 1073 = %d, want >= 13", p.AmplificationFactor())
	}
	q, _ := NewPlan(1024, 100*sim.Gbps)
	if q.AmplificationFactor() != 12 {
		t.Fatalf("amplification at MTU 1024 = %d, want 12", q.AmplificationFactor())
	}
}

func TestPlanRates(t *testing.T) {
	p, _ := NewPlan(1024, 100*sim.Gbps)
	if p.SchePPS < 148.7e6 || p.SchePPS > 148.9e6 {
		t.Fatalf("SCHE rate = %v pps, want ~148.8M", p.SchePPS)
	}
	if p.DataPPSPerPort < 11.9e6 || p.DataPPSPerPort > 12.1e6 {
		t.Fatalf("DATA rate = %v pps, want ~11.97M", p.DataPPSPerPort)
	}
	p2, _ := NewPlan(1518, 100*sim.Gbps)
	if p2.DataPPSPerPort < 8.1e6 || p2.DataPPSPerPort > 8.2e6 {
		t.Fatalf("DATA rate at 1518 = %v pps, want ~8.127M", p2.DataPPSPerPort)
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := NewPlan(32, 100*sim.Gbps); err == nil {
		t.Error("tiny MTU accepted")
	}
	if _, err := NewPlan(1024, 0); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestQuickPlanPortBudget(t *testing.T) {
	f := func(mtuRaw uint16) bool {
		mtu := int(mtuRaw)%9000 + 100
		p, err := NewPlan(mtu, 100*sim.Gbps)
		if err != nil {
			return mtu < packet.ControlSize
		}
		return p.TotalPorts() <= PortsPerPipeline && p.DataPorts >= 1 &&
			p.DataPorts <= p.AmplificationFactor()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegQueueFIFOAndOverflow(t *testing.T) {
	q := newRegQueue(4)
	for i := 0; i < 4; i++ {
		if !q.enqueue(scheMeta{psn: uint32(i)}) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	if q.enqueue(scheMeta{psn: 99}) {
		t.Fatal("overflow admitted")
	}
	if q.drops != 1 {
		t.Fatalf("drops = %d, want 1", q.drops)
	}
	for i := 0; i < 4; i++ {
		m, ok := q.dequeue()
		if !ok || m.psn != uint32(i) {
			t.Fatalf("dequeue %d: %v %v", i, m, ok)
		}
	}
	if _, ok := q.dequeue(); ok {
		t.Fatal("dequeue on empty succeeded")
	}
}

func TestQuickRegQueueWraparound(t *testing.T) {
	f := func(ops []byte) bool {
		q := newRegQueue(8)
		var model []uint32
		psn := uint32(0)
		for _, op := range ops {
			if op%2 == 0 {
				if q.enqueue(scheMeta{psn: psn}) {
					model = append(model, psn)
				}
				psn++
			} else {
				m, ok := q.dequeue()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if m.psn != model[0] {
						return false
					}
					model = model[1:]
				}
			}
		}
		return q.len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func buildPipeline(t *testing.T, cfg Config) (*sim.Engine, *Pipeline) {
	t.Helper()
	eng := sim.NewEngine()
	if cfg.Plan.MTU == 0 {
		plan, err := NewPlan(1024, 100*sim.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Plan = plan
	}
	pl, err := NewPipeline(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, pl
}

func sche(flow packet.FlowID, psn uint32, port int) *packet.Packet {
	return packet.NewSche(flow, psn, port, 0)
}

func TestPipelineGeneratesDataFromSche(t *testing.T) {
	eng, pl := buildPipeline(t, Config{})
	var out netem.Sink
	pl.ConnectDataPort(0, &out)
	if err := pl.BindFlow(1, 0); err != nil {
		t.Fatal(err)
	}
	pl.ScheIn().Receive(sche(1, 42, 0))
	eng.RunAll()
	if out.Packets != 1 {
		t.Fatalf("emitted %d DATA packets, want 1", out.Packets)
	}
	d := out.Last
	if d.Type != packet.DATA || d.Flow != 1 || d.PSN != 42 || d.Size != 1024 {
		t.Fatalf("DATA = %+v", d)
	}
	c := pl.Counters()
	if c.ScheRx != 1 || c.DataTx != 1 || c.ScheDrops != 0 {
		t.Fatalf("counters = %+v", c)
	}
	if pl.FlowTxBytes(1) != 1024 {
		t.Fatalf("flow tx bytes = %d", pl.FlowTxBytes(1))
	}
}

func TestPipelinePacesAtPortLineRate(t *testing.T) {
	eng, pl := buildPipeline(t, Config{})
	var times []sim.Time
	pl.ConnectDataPort(0, netem.NodeFunc(func(p *packet.Packet) {
		times = append(times, eng.Now())
	}))
	pl.BindFlow(1, 0)
	in := pl.ScheIn()
	for i := 0; i < 10; i++ {
		in.Receive(sche(1, uint32(i), 0))
	}
	eng.RunAll()
	if len(times) != 10 {
		t.Fatalf("emitted %d, want 10", len(times))
	}
	slot := (100 * sim.Gbps).Serialize(packet.WireSize(1024))
	for i := 1; i < len(times); i++ {
		if gap := times[i].Sub(times[i-1]); gap < slot {
			t.Fatalf("gap %v < TEMP slot %v: port exceeded line rate", gap, slot)
		}
	}
}

func TestPipelinePortsIndependent(t *testing.T) {
	eng, pl := buildPipeline(t, Config{})
	var a, b netem.Sink
	pl.ConnectDataPort(0, &a)
	pl.ConnectDataPort(1, &b)
	pl.BindFlow(1, 0)
	pl.BindFlow(2, 1)
	in := pl.ScheIn()
	for i := 0; i < 5; i++ {
		in.Receive(sche(1, uint32(i), 0))
		in.Receive(sche(2, uint32(i), 1))
	}
	eng.RunAll()
	if a.Packets != 5 || b.Packets != 5 {
		t.Fatalf("a=%d b=%d, want 5 each", a.Packets, b.Packets)
	}
	pc := pl.PortCounters(0)
	if pc.DataTx != 5 || pc.ScheRx != 5 {
		t.Fatalf("port 0 counters = %+v", pc)
	}
}

func TestPipelineQueueOverflowIsFalseLoss(t *testing.T) {
	eng, pl := buildPipeline(t, Config{QueueDepth: 8})
	var out netem.Sink
	pl.ConnectDataPort(0, &out)
	pl.BindFlow(1, 0)
	in := pl.ScheIn()
	// Burst far above what one port's TEMP slots can drain.
	for i := 0; i < 100; i++ {
		in.Receive(sche(1, uint32(i), 0))
	}
	eng.RunAll()
	c := pl.Counters()
	if c.ScheDrops == 0 {
		t.Fatal("overrun produced no queue drops (Challenge 1 not modelled)")
	}
	if out.Packets+c.ScheDrops != 100 {
		t.Fatalf("emitted %d + dropped %d != 100", out.Packets, c.ScheDrops)
	}
}

func TestPipelineBadPortSche(t *testing.T) {
	eng, pl := buildPipeline(t, Config{})
	pl.ScheIn().Receive(sche(1, 0, 99))
	eng.RunAll()
	if pl.Counters().ScheDrops != 1 {
		t.Fatal("out-of-range port SCHE not counted as drop")
	}
	if err := pl.BindFlow(1, 99); err == nil {
		t.Fatal("BindFlow accepted bad port")
	}
}

func TestPipelineSharedQueueMisdelivers(t *testing.T) {
	eng, pl := buildPipeline(t, Config{SharedQueue: true, QueueDepth: 64})
	sinks := make([]netem.Sink, 12)
	for i := range sinks {
		pl.ConnectDataPort(i, &sinks[i])
	}
	pl.BindFlow(1, 0)
	pl.BindFlow(2, 5)
	in := pl.ScheIn()
	// Interleave SCHE for two ports: with one shared queue, TEMP slots on
	// other ports grab metadata destined elsewhere.
	for i := 0; i < 50; i++ {
		in.Receive(sche(1, uint32(i), 0))
		in.Receive(sche(2, uint32(i), 5))
	}
	eng.RunAll()
	if pl.Counters().Misdelivered == 0 {
		t.Fatal("shared queue produced no misdeliveries (§4.2 ablation)")
	}
}

func TestReceiverTCPInOrderCumulativeAck(t *testing.T) {
	eng, pl := buildPipeline(t, Config{Receiver: TCPReceiver})
	var acks []*packet.Packet
	pl.ConnectAckPort(0, netem.NodeFunc(func(p *packet.Packet) { acks = append(acks, p) }))
	rx := pl.DataIn(0)
	for i := 0; i < 3; i++ {
		rx.Receive(packet.NewData(1, uint32(i), 1024, sim.Time(i*100)))
	}
	eng.RunAll()
	if len(acks) != 3 {
		t.Fatalf("acks = %d, want 3", len(acks))
	}
	for i, a := range acks {
		if a.Type != packet.ACK || a.Ack != uint32(i+1) || a.Size != packet.ControlSize {
			t.Fatalf("ack %d = %+v", i, a)
		}
		if a.SentAt != sim.Time(i*100) {
			t.Fatalf("ack %d did not echo SentAt", i)
		}
	}
}

func TestReceiverTCPOutOfOrderBuffersAndDrains(t *testing.T) {
	_, pl := buildPipeline(t, Config{Receiver: TCPReceiver})
	var acks []*packet.Packet
	pl.ConnectAckPort(0, netem.NodeFunc(func(p *packet.Packet) { acks = append(acks, p) }))
	rx := pl.DataIn(0)
	rx.Receive(packet.NewData(1, 0, 1024, 0))
	rx.Receive(packet.NewData(1, 2, 1024, 0)) // gap at 1
	rx.Receive(packet.NewData(1, 3, 1024, 0))
	if acks[1].Ack != 1 || acks[2].Ack != 1 {
		t.Fatalf("dup acks = %d,%d, want 1,1", acks[1].Ack, acks[2].Ack)
	}
	rx.Receive(packet.NewData(1, 1, 1024, 0)) // fill the hole
	if got := acks[3].Ack; got != 4 {
		t.Fatalf("ack after hole fill = %d, want 4 (buffered ooo drained)", got)
	}
	if pl.Counters().OutOfOrderRx != 2 {
		t.Fatalf("ooo counter = %d, want 2", pl.Counters().OutOfOrderRx)
	}
}

func TestReceiverTCPEchoesCE(t *testing.T) {
	_, pl := buildPipeline(t, Config{Receiver: TCPReceiver})
	var acks []*packet.Packet
	pl.ConnectAckPort(0, netem.NodeFunc(func(p *packet.Packet) { acks = append(acks, p) }))
	d := packet.NewData(1, 0, 1024, 0)
	d.Flags |= packet.FlagCE
	pl.DataIn(0).Receive(d)
	clean := packet.NewData(1, 1, 1024, 0)
	pl.DataIn(0).Receive(clean)
	if !acks[0].Flags.Has(packet.FlagECNEcho) {
		t.Fatal("CE not echoed")
	}
	if acks[1].Flags.Has(packet.FlagECNEcho) {
		t.Fatal("ECE set on unmarked packet")
	}
}

func TestReceiverRoCENackAndGoBackN(t *testing.T) {
	_, pl := buildPipeline(t, Config{Receiver: RoCEReceiver})
	var out []*packet.Packet
	pl.ConnectAckPort(0, netem.NodeFunc(func(p *packet.Packet) { out = append(out, p) }))
	rx := pl.DataIn(0)
	rx.Receive(packet.NewData(1, 0, 1024, 0))
	rx.Receive(packet.NewData(1, 2, 1024, 0)) // gap
	rx.Receive(packet.NewData(1, 3, 1024, 0)) // still gap: no second NACK
	nacks := 0
	for _, p := range out {
		if p.Flags.Has(packet.FlagNACK) {
			nacks++
			if p.Ack != 1 {
				t.Fatalf("NACK ack = %d, want 1", p.Ack)
			}
		}
	}
	if nacks != 1 {
		t.Fatalf("nacks = %d, want 1 per gap episode", nacks)
	}
	// Retransmission of 1 resumes the flow; 2 and 3 were discarded.
	rx.Receive(packet.NewData(1, 1, 1024, 0))
	last := out[len(out)-1]
	if last.Ack != 2 {
		t.Fatalf("ack after retransmit = %d, want 2 (go-back-N discards ooo)", last.Ack)
	}
}

func TestReceiverRoCECNPPacing(t *testing.T) {
	eng, pl := buildPipeline(t, Config{Receiver: RoCEReceiver, CNPInterval: sim.Micros(50)})
	var cnps int
	pl.ConnectAckPort(0, netem.NodeFunc(func(p *packet.Packet) {
		if p.Type == packet.CNP {
			cnps++
		}
	}))
	rx := pl.DataIn(0)
	// 10 CE-marked packets within one CNP interval: only 1 CNP.
	for i := 0; i < 10; i++ {
		d := packet.NewData(1, uint32(i), 1024, 0)
		d.Flags |= packet.FlagCE
		rx.Receive(d)
	}
	if cnps != 1 {
		t.Fatalf("cnps = %d, want 1 (paced)", cnps)
	}
	// After the interval passes, the next CE produces another CNP.
	eng.Schedule(sim.Micros(60), func() {
		d := packet.NewData(1, 10, 1024, 0)
		d.Flags |= packet.FlagCE
		rx.Receive(d)
	})
	eng.RunAll()
	if cnps != 2 {
		t.Fatalf("cnps = %d, want 2", cnps)
	}
}

func TestModuleBConvertsAckToInfo(t *testing.T) {
	eng, pl := buildPipeline(t, Config{})
	var infos []*packet.Packet
	pl.ConnectInfo(netem.NodeFunc(func(p *packet.Packet) { infos = append(infos, p) }))
	pl.BindFlow(7, 3)
	ack := &packet.Packet{
		Type: packet.ACK, Flow: 7, PSN: 5, Ack: 6,
		Flags: packet.FlagECNEcho, Size: packet.ControlSize, SentAt: 123,
	}
	pl.AckIn().Receive(ack)
	eng.RunAll()
	if len(infos) != 1 {
		t.Fatalf("infos = %d, want 1", len(infos))
	}
	info := infos[0]
	if info.Type != packet.INFO || info.Flow != 7 || info.Ack != 6 ||
		!info.Flags.Has(packet.FlagECNEcho) || info.Size != packet.ControlSize {
		t.Fatalf("info = %+v", info)
	}
	if info.Port != 3 {
		t.Fatalf("info port = %d, want bound port 3", info.Port)
	}
	if info.SentAt != 123 {
		t.Fatal("info lost the echoed timestamp")
	}
}

func TestModuleBConvertsCNP(t *testing.T) {
	eng, pl := buildPipeline(t, Config{})
	var infos []*packet.Packet
	pl.ConnectInfo(netem.NodeFunc(func(p *packet.Packet) { infos = append(infos, p) }))
	cnp := &packet.Packet{Type: packet.CNP, Flow: 2, Size: packet.ControlSize}
	pl.AckIn().Receive(cnp)
	eng.RunAll()
	if len(infos) != 1 || !infos[0].Flags.Has(packet.FlagCNPNotify) {
		t.Fatalf("CNP not encapsulated: %+v", infos)
	}
}

func TestResetFlowClearsReceiverState(t *testing.T) {
	_, pl := buildPipeline(t, Config{Receiver: TCPReceiver})
	var acks []*packet.Packet
	pl.ConnectAckPort(0, netem.NodeFunc(func(p *packet.Packet) { acks = append(acks, p) }))
	rx := pl.DataIn(0)
	rx.Receive(packet.NewData(1, 0, 1024, 0))
	rx.Receive(packet.NewData(1, 1, 1024, 0))
	pl.ResetFlow(1)
	rx.Receive(packet.NewData(1, 0, 1024, 0)) // reused flow slot, new flow
	if last := acks[len(acks)-1]; last.Ack != 1 {
		t.Fatalf("ack after reset = %d, want 1", last.Ack)
	}
}

// refTCPReceiver is the TCP receiver's cumulative-ACK rule written with a
// map for its out-of-order buffer, the way Module A kept it before the
// buffer became a sorted PSN list: what it acknowledges and counts is the
// contract the list must keep.
type refTCPReceiver struct {
	expected map[packet.FlowID]uint32
	ooo      map[packet.FlowID]map[uint32]bool
	oooRx    uint64
	dupRx    uint64
}

func (m *refTCPReceiver) onData(flow packet.FlowID, psn uint32) uint32 {
	exp, buf := m.expected[flow], m.ooo[flow]
	switch {
	case psn == exp:
		exp++
		for buf[exp] {
			delete(buf, exp)
			exp++
		}
	case seqAfter(psn, exp):
		m.oooRx++
		if buf == nil {
			buf = map[uint32]bool{}
			m.ooo[flow] = buf
		}
		buf[psn] = true
	default:
		m.dupRx++
	}
	m.expected[flow] = exp
	return exp
}

func (m *refTCPReceiver) reset(flow packet.FlowID) {
	delete(m.expected, flow)
	delete(m.ooo, flow)
}

// Three flows' PSN streams, each reordered within a sliding window and
// laced with duplicates of buffered, acknowledged and future PSNs, with
// resets of a flow that holds a gap: every ACK and the ooo and duplicate
// counters match the map-based reference.
func TestReceiverTCPReorderedStreamMatchesReference(t *testing.T) {
	_, pl := buildPipeline(t, Config{Receiver: TCPReceiver})
	var got []uint32
	pl.ConnectAckPort(0, netem.NodeFunc(func(p *packet.Packet) {
		got = append(got, p.Ack)
		p.Release()
	}))
	rx := pl.DataIn(0)
	ref := &refTCPReceiver{expected: map[packet.FlowID]uint32{}, ooo: map[packet.FlowID]map[uint32]bool{}}
	rng := sim.NewRand(47)
	var next [3]uint32 // the next fresh PSN of each flow
	var want []uint32
	send := func(flow packet.FlowID, psn uint32) {
		want = append(want, ref.onData(flow, psn))
		rx.Receive(packet.NewData(flow, psn, 1024, 0))
	}
	for step := 0; step < 20_000; step++ {
		flow := packet.FlowID(rng.Intn(3))
		switch r := rng.Intn(100); {
		case r < 2 && flow == 2: // a restarted flow, often mid-gap
			pl.ResetFlow(flow)
			ref.reset(flow)
			next[flow] = 0
		case r < 10: // a duplicate of a recent PSN, acknowledged or not
			if next[flow] > 0 {
				send(flow, next[flow]-1-uint32(rng.Intn(int(min(next[flow], 16)))))
			}
		case r < 40: // a PSN from up to 8 ahead, leaving a gap
			send(flow, next[flow]+uint32(rng.Intn(8)))
		default: // the next PSN in order
			send(flow, next[flow])
			next[flow]++
		}
		if e := ref.expected[flow]; seqAfter(e, next[flow]) {
			next[flow] = e
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d ACKs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ACK %d acknowledges %d, want %d", i, got[i], want[i])
		}
	}
	c := pl.Counters()
	if c.OutOfOrderRx != ref.oooRx || c.DuplicateRx != ref.dupRx {
		t.Fatalf("ooo %d dup %d, want %d %d", c.OutOfOrderRx, c.DuplicateRx, ref.oooRx, ref.dupRx)
	}
	if ref.oooRx < 1000 || ref.dupRx < 1000 {
		t.Fatalf("the stream exercised too little: %d ooo, %d dup", ref.oooRx, ref.dupRx)
	}
}

// Once a receiver has buffered a gap, later gaps reuse the buffer, across
// drains and flow resets alike: a warm reordered flow allocates nothing,
// and neither does the next flow in its slot.
func TestReceiverWarmReorderingAllocatesNothing(t *testing.T) {
	pool := new(packet.Pool)
	_, pl := buildPipeline(t, Config{Receiver: TCPReceiver, Pool: pool})
	pl.ConnectAckPort(0, netem.NodeFunc(func(p *packet.Packet) { p.Release() }))
	rx := pl.DataIn(0)
	window := func() {
		for base := uint32(0); base < 16; base += 8 {
			for _, off := range [...]uint32{3, 1, 5, 2, 4, 1, 0, 6, 7} {
				rx.Receive(pool.NewData(1, base+off, 1024, 0))
			}
		}
		rx.Receive(pool.NewData(1, 20, 1024, 0)) // a gap left open
		pl.ResetFlow(1)
	}
	window()
	if race.Enabled {
		t.Skip("the race runtime allocates shadow state")
	}
	if a := testing.AllocsPerRun(100, window); a != 0 {
		t.Fatalf("a warm reordered flow allocated %v times a window, want 0", a)
	}
	if c := pl.Counters(); c.OutOfOrderRx == 0 || c.AckTx != c.DataRx {
		t.Fatalf("counters %+v: no reordering, or an ACK short", c)
	}
}

func TestPipelineThroughputAmplification(t *testing.T) {
	// End-to-end §3.3 check at model scale: drive all 12 ports with SCHE
	// for 100 us and verify aggregate DATA rate approaches 1.2 Tbps.
	eng, pl := buildPipeline(t, Config{QueueDepth: 1 << 14})
	var bytes uint64
	for port := 0; port < 12; port++ {
		pl.ConnectDataPort(port, netem.NodeFunc(func(p *packet.Packet) {
			bytes += uint64(packet.WireSize(p.Size))
		}))
		pl.BindFlow(packet.FlowID(port), port)
	}
	in := pl.ScheIn()
	// Feed each port exactly its DATA pps over 100 us.
	perPort := int(pl.Plan().DataPPSPerPort * 100e-6)
	for i := 0; i < perPort; i++ {
		for port := 0; port < 12; port++ {
			at := sim.Time(i) * sim.Time(sim.Micros(100)) / sim.Time(perPort)
			port := port
			ii := i
			eng.ScheduleAt(at, func() {
				in.Receive(sche(packet.FlowID(port), uint32(ii), port))
			})
		}
	}
	eng.Run(sim.Time(sim.Micros(100)))
	eng.RunAll()
	elapsed := eng.Now().Seconds()
	tbps := float64(bytes) * 8 / elapsed / 1e12
	if tbps < 1.1 || tbps > 1.25 {
		t.Fatalf("aggregate = %.3f Tbps, want ~1.2", tbps)
	}
	if pl.Counters().ScheDrops != 0 {
		t.Fatalf("paced feed overflowed queues: %d drops", pl.Counters().ScheDrops)
	}
}

func BenchmarkPipelineScheToData(b *testing.B) {
	eng := sim.NewEngine()
	plan, _ := NewPlan(1024, 100*sim.Gbps)
	pl, _ := NewPipeline(eng, Config{Plan: plan, QueueDepth: 1 << 12})
	pl.ConnectDataPort(0, netem.NodeFunc(func(p *packet.Packet) { p.Release() }))
	pl.BindFlow(1, 0)
	in := pl.ScheIn()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.Receive(sche(1, uint32(i), 0))
		if i%512 == 511 {
			eng.RunAll()
		}
	}
	eng.RunAll()
}

// BenchmarkPipelineFig6Scale drives the whole pipeline at its Figure 6
// shape: all 12 data ports bound and fed SCHE round-robin, DATA consumed
// (and released) at the ports. This is the steady-state switch inner loop.
func BenchmarkPipelineFig6Scale(b *testing.B) {
	eng := sim.NewEngine()
	plan, _ := NewPlan(1024, 100*sim.Gbps)
	pl, _ := NewPipeline(eng, Config{Plan: plan, QueueDepth: 1 << 12})
	drop := netem.NodeFunc(func(p *packet.Packet) { p.Release() })
	for port := 0; port < plan.DataPorts; port++ {
		pl.ConnectDataPort(port, drop)
		pl.BindFlow(packet.FlowID(port), port)
	}
	in := pl.ScheIn()
	psn := make([]uint32, plan.DataPorts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		port := i % plan.DataPorts
		in.Receive(sche(packet.FlowID(port), psn[port], port))
		psn[port]++
		if i%512 == 511 {
			eng.RunAll()
		}
	}
	eng.RunAll()
}

func TestResourcesMatchPaperScale(t *testing.T) {
	plan, err := NewPlan(1024, 100*sim.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's program uses 58/960 SRAM and 3/288 TCAM over 4 stages;
	// our accounting for the default config must land in the same regime
	// and within budget.
	r := Resources(plan, DefaultQueueDepth, 65536)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.SRAMUsed < 10 || r.SRAMUsed > 200 {
		t.Fatalf("SRAM = %d blocks, want the paper's order (58)", r.SRAMUsed)
	}
	if r.TCAMUsed != 3 {
		t.Fatalf("TCAM = %d, want 3 (§6)", r.TCAMUsed)
	}
	if r.Stages != 4 {
		t.Fatalf("stages = %d, want 4 (§6)", r.Stages)
	}
}

func TestResourcesRejectOversized(t *testing.T) {
	plan, _ := NewPlan(1024, 100*sim.Gbps)
	r := Resources(plan, 1<<22, 1<<24) // absurd queue depth and flow count
	if err := r.Validate(); err == nil {
		t.Fatal("oversized configuration validated")
	}
}
