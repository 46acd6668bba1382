package tofino

import (
	"fmt"

	"marlin/internal/flowtab"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

// Config configures one pipeline model.
type Config struct {
	// Plan is the port allocation (NewPlan).
	Plan Plan
	// QueueDepth is the per-port register-queue depth (0 = default).
	QueueDepth int
	// SharedQueue replaces the per-egress-port queues with one shared
	// queue — the broken design §4.2 rules out, kept for the ablation:
	// "a TEMP packet might accidentally dequeue metadata meant for a
	// different port, leading to incorrect packet transmission".
	SharedQueue bool
	// Receiver selects the Module A behaviour.
	Receiver ReceiverMode
	// ReceiverOnFPGA moves the receiver logic to the FPGA (Figure 2's
	// dashed path, §4.1): arriving DATA is truncated to 64 bytes and
	// forwarded over the reserved port to the pipeline's Receiver, placed
	// on the FPGA end, instead of being processed here; its responses come
	// back through FPGAAckIn.
	ReceiverOnFPGA bool
	// CNPInterval rate-limits per-flow CNP generation (RoCE receiver; 0:
	// a CNP per CE-marked arrival).
	CNPInterval sim.Duration
	// Pool supplies the DATA, NACK and CNP packets the pipeline creates: the
	// tester island's, shared with its NIC, or the shared pool (nil) for a
	// pipeline built outside a tester.
	Pool *packet.Pool
}

// Counters are the pipeline's control-plane-visible registers (§3.2: "the
// control plane can retrieve data such as port rate, flow rate, and packet
// loss by reading hardware registers").
type Counters struct {
	ScheRx       uint64
	ScheDrops    uint64 // register-queue overflows: false losses
	DataTx       uint64
	DataTxBytes  uint64
	DataRx       uint64
	AckTx        uint64
	CnpTx        uint64
	NackTx       uint64
	AckRx        uint64
	InfoTx       uint64
	Misdelivered uint64 // shared-queue ablation: DATA on the wrong port
	OutOfOrderRx uint64
	DuplicateRx  uint64
}

// PortCounters are per-data-port registers.
type PortCounters struct {
	DataTx      uint64
	DataTxBytes uint64
	ScheRx      uint64
	ScheDrops   uint64
	QueueLen    int
}

// Pipeline is one Tofino pipeline running Marlin's P4 program.
type Pipeline struct {
	eng *sim.Engine
	cfg Config

	queues []*regQueue
	shared *regQueue

	dataOut  []netem.Node
	infoOut  netem.Node
	slot     sim.Duration // TEMP slot: wire time of one MTU frame
	portFree []sim.Time
	pending  []bool
	// emitFns holds one prebuilt TEMP-slot closure per port so kick does
	// not allocate a closure per emitted packet; sharedFns is the same for
	// the shared-queue ablation's kickShared.
	emitFns   []sim.Func
	sharedFns []sim.Func

	flows   flowtab.Table[flowRow]
	recv    *Receiver
	rxFwd   netem.Node   // reserved-port link toward the FPGA receiver
	ackOut  []netem.Node // receiver port -> its ACK return path
	dataIns []dataIn     // receiver port -> the Node DataIn returns

	c     Counters
	ports []PortCounters
}

// flowRow is a flow's switch state: the data port it is bound to, which
// its INFO packets report (0 for a flow never bound), and its flow-rate
// register.
type flowRow struct {
	port        int32
	dataTxBytes uint64
}

// NewPipeline builds a pipeline from a validated config.
func NewPipeline(eng *sim.Engine, cfg Config) (*Pipeline, error) {
	if err := cfg.Plan.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Plan.DataPorts
	pl := &Pipeline{
		eng:      eng,
		cfg:      cfg,
		dataOut:  make([]netem.Node, n),
		slot:     cfg.Plan.PortRate.Serialize(packet.WireSize(cfg.Plan.MTU)),
		portFree: make([]sim.Time, n),
		pending:  make([]bool, n),
		emitFns:  make([]sim.Func, n),
		ports:    make([]PortCounters, n),
		ackOut:   make([]netem.Node, n),
		dataIns:  make([]dataIn, n),
	}
	for i := range pl.dataIns {
		pl.dataIns[i] = dataIn{pl: pl, port: i}
	}
	for i := range pl.emitFns {
		i := i
		pl.emitFns[i] = func() { pl.emit(i) }
	}
	if cfg.SharedQueue {
		pl.shared = newRegQueue(cfg.QueueDepth * maxInt(n, 1))
		pl.sharedFns = make([]sim.Func, n)
		for i := range pl.sharedFns {
			i := i
			pl.sharedFns[i] = func() {
				pl.emit(i)
				if pl.shared.len() > 0 {
					pl.kickShared()
				}
			}
		}
	} else {
		pl.queues = make([]*regQueue, n)
		for i := range pl.queues {
			pl.queues[i] = newRegQueue(cfg.QueueDepth)
		}
	}
	pl.recv = newReceiver(eng, cfg.Receiver, cfg.CNPInterval, cfg.Pool)
	return pl, nil
}

// Plan returns the pipeline's port plan.
func (pl *Pipeline) Plan() Plan { return pl.cfg.Plan }

// ConnectDataPort attaches data port i's egress to the tested network.
func (pl *Pipeline) ConnectDataPort(i int, out netem.Node) {
	pl.dataOut[i] = out
}

// ConnectInfo attaches the FPGA-facing INFO egress.
func (pl *Pipeline) ConnectInfo(out netem.Node) { pl.infoOut = out }

// ConnectAckPort attaches receiver port i's ACK return path: Module A's
// output for the port, or with ReceiverOnFPGA where FPGAAckIn routes the
// port's responses.
func (pl *Pipeline) ConnectAckPort(i int, out netem.Node) {
	pl.ackOut[i] = out
	if !pl.cfg.ReceiverOnFPGA {
		pl.recv.ConnectAck(i, out)
	}
}

// Receiver returns the pipeline's Module A, whose registers Counters
// reads. With ReceiverOnFPGA it runs on the FPGA end of the reserved port:
// the builder connects ConnectRxForward's cable to its Node and its ACK
// outputs to the cable back to FPGAAckIn.
func (pl *Pipeline) Receiver() *Receiver { return pl.recv }

// BindFlow assigns a flow to a data port; the FPGA must pace the flow's
// SCHE packets within that port's DATA rate (§4.2).
func (pl *Pipeline) BindFlow(flow packet.FlowID, port int) error {
	if port < 0 || port >= len(pl.dataOut) {
		return fmt.Errorf("tofino: port %d out of range [0,%d)", port, len(pl.dataOut))
	}
	pl.flows.Slot(flow).port = int32(port)
	return nil
}

// ResetFlow clears receiver-side state, wherever Module A is placed, so a
// flow slot can be reused for a new flow (closed-loop workloads).
func (pl *Pipeline) ResetFlow(flow packet.FlowID) {
	pl.recv.Reset(flow)
	if f := pl.flows.Get(flow); f != nil {
		f.dataTxBytes = 0
	}
}

// Counters returns a snapshot of the pipeline registers.
func (pl *Pipeline) Counters() Counters {
	c := pl.c
	c.CnpTx = pl.recv.cnpTx
	c.NackTx = pl.recv.nackTx
	c.AckTx = pl.recv.ackTx
	c.DataRx = pl.recv.dataRx
	c.OutOfOrderRx = pl.recv.oooRx
	c.DuplicateRx = pl.recv.dupRx
	return c
}

// Plus returns the field-wise sum of two register snapshots; sharded
// testers merge their per-partition pipelines with it.
func (c Counters) Plus(o Counters) Counters {
	c.ScheRx += o.ScheRx
	c.ScheDrops += o.ScheDrops
	c.DataTx += o.DataTx
	c.DataTxBytes += o.DataTxBytes
	c.DataRx += o.DataRx
	c.AckTx += o.AckTx
	c.CnpTx += o.CnpTx
	c.NackTx += o.NackTx
	c.AckRx += o.AckRx
	c.InfoTx += o.InfoTx
	c.Misdelivered += o.Misdelivered
	c.OutOfOrderRx += o.OutOfOrderRx
	c.DuplicateRx += o.DuplicateRx
	return c
}

// PortCounters returns the registers of data port i.
func (pl *Pipeline) PortCounters(i int) PortCounters {
	pc := pl.ports[i]
	if pl.queues != nil {
		pc.QueueLen = pl.queues[i].len()
	}
	return pc
}

// FlowTxBytes returns the DATA bytes emitted for a flow (flow-rate
// register).
func (pl *Pipeline) FlowTxBytes(flow packet.FlowID) uint64 {
	if f := pl.flows.Get(flow); f != nil {
		return f.dataTxBytes
	}
	return 0
}

// ScheIn returns the Node the FPGA-facing link delivers SCHE packets to.
func (pl *Pipeline) ScheIn() netem.Node {
	return netem.NodeFunc(pl.receiveSche)
}

// receiveSche implements §4.2's enqueue: "when a SCHE packet arrives at
// the egress, its metadata is enqueued into the queue corresponding to the
// designated output port", then the SCHE packet is discarded.
func (pl *Pipeline) receiveSche(p *packet.Packet) {
	if p.Type != packet.SCHE {
		p.Release()
		return
	}
	pl.c.ScheRx++
	port := p.Port
	m := scheMeta{flow: p.Flow, psn: p.PSN, flags: p.Flags, sentAt: int64(p.SentAt), port: port}
	p.Release() // the SCHE frame is pure metadata once parsed (§4.2)
	if port < 0 || port >= len(pl.dataOut) {
		pl.c.ScheDrops++
		return
	}
	pl.ports[port].ScheRx++
	q := pl.shared
	if q == nil {
		q = pl.queues[port]
	}
	if !q.enqueue(m) {
		pl.c.ScheDrops++
		pl.ports[port].ScheDrops++
		return
	}
	if pl.cfg.SharedQueue {
		pl.kickShared()
	} else {
		pl.kick(port)
	}
}

// kick gives port i's queue its next TEMP slot: at once when the slot is
// already free — nothing is waited for, so there is no event — otherwise
// by arming one for when it frees. TEMP packets circulate at line rate and
// are multicast to every port; a slot that finds the queue empty discards
// its TEMP packet, so only occupied slots are simulated.
func (pl *Pipeline) kick(port int) {
	if pl.pending[port] {
		return
	}
	if pl.portFree[port] <= pl.eng.Now() {
		pl.emit(port)
		return
	}
	pl.pending[port] = true
	pl.eng.ScheduleAt(pl.portFree[port], pl.emitFns[port])
}

// emit is one TEMP slot on a port: dequeue metadata, restore the DATA
// packet, and send it into the tested network.
func (pl *Pipeline) emit(port int) {
	pl.pending[port] = false
	q := pl.shared
	if q == nil {
		q = pl.queues[port]
	}
	m, ok := q.dequeue()
	if !ok {
		return
	}
	pl.portFree[port] = pl.eng.Now().Add(pl.slot)
	if m.port != port {
		pl.c.Misdelivered++
	}
	pl.sendData(port, m)
	if q.len() > 0 {
		pl.kick(port)
	}
}

// kickShared schedules the shared-queue ablation's next emission on
// whichever port's TEMP slot comes first.
func (pl *Pipeline) kickShared() {
	best := -1
	for i := range pl.portFree {
		if pl.pending[i] {
			continue
		}
		if best == -1 || pl.portFree[i] < pl.portFree[best] {
			best = i
		}
	}
	if best == -1 {
		return
	}
	pl.pending[best] = true
	at := pl.portFree[best]
	if now := pl.eng.Now(); at < now {
		at = now
	}
	pl.eng.ScheduleAt(at, pl.sharedFns[best])
}

func (pl *Pipeline) sendData(port int, m scheMeta) {
	out := pl.dataOut[port]
	if out == nil {
		return
	}
	d := pl.cfg.Pool.NewData(m.flow, m.psn, pl.cfg.Plan.MTU, sim.Time(m.sentAt))
	d.Flags |= m.flags & packet.FlagRetransmit
	// Carry the flow's ECN codepoint from the SCHE header onto the DATA
	// packet it generates (NewData defaults to ECT(0)).
	d.Flags = d.Flags&^packet.ECTMask | m.flags&packet.ECTMask
	d.Port = port
	pl.c.DataTx++
	pl.c.DataTxBytes += uint64(d.Size)
	pl.ports[port].DataTx++
	pl.ports[port].DataTxBytes += uint64(d.Size)
	if f := pl.flows.Get(m.flow); f != nil {
		f.dataTxBytes += uint64(d.Size)
	}
	out.Receive(d)
}

// ConnectRxForward attaches the reserved-port link carrying truncated DATA
// toward the FPGA receiver (only used with ReceiverOnFPGA).
func (pl *Pipeline) ConnectRxForward(out netem.Node) { pl.rxFwd = out }

// DataIn returns the Node the tested network delivers DATA to at receiver
// port i (Module A, §4.1). With ReceiverOnFPGA the packet is instead
// truncated to 64 bytes and forwarded to the FPGA over the reserved port.
func (pl *Pipeline) DataIn(port int) netem.Node { return &pl.dataIns[port] }

// dataIn is one receiver port's ingress, built once with the pipeline.
type dataIn struct {
	pl   *Pipeline
	port int
}

func (d *dataIn) Receive(p *packet.Packet) {
	pl := d.pl
	if !pl.cfg.ReceiverOnFPGA {
		pl.recv.onData(d.port, p)
		return
	}
	if p.Type != packet.DATA || pl.rxFwd == nil {
		p.Release()
		return
	}
	p.Size = packet.ControlSize // truncation, in place
	p.Port = d.port             // arrival port for ACK routing
	pl.rxFwd.Receive(p)
}

// FPGAAckIn returns the Node that accepts the FPGA-placed receiver's
// ACK/NACK/CNP responses and routes each onto its arrival port's ACK path;
// the receiver counted them when it sent them.
func (pl *Pipeline) FPGAAckIn() netem.Node {
	return netem.NodeFunc(func(p *packet.Packet) {
		if p.Port < 0 || p.Port >= len(pl.ackOut) || pl.ackOut[p.Port] == nil {
			p.Release()
			return
		}
		pl.ackOut[p.Port].Receive(p)
	})
}

// AckIn returns the Node returning ACK/CNP packets reach (Module B): each
// is compressed into a 64-byte INFO packet and forwarded to the FPGA.
func (pl *Pipeline) AckIn() netem.Node { return (*ackIn)(pl) }

// ackIn is the pipeline as the Node AckIn returns, so taking it allocates
// nothing.
type ackIn Pipeline

func (a *ackIn) Receive(p *packet.Packet) { (*Pipeline)(a).receiveAck(p) }

func (pl *Pipeline) receiveAck(p *packet.Packet) {
	switch p.Type {
	case packet.ACK, packet.CNP:
	default:
		p.Release()
		return
	}
	pl.c.AckRx++
	if pl.infoOut == nil {
		p.Release()
		return
	}
	// Compression rewrites the frame in place — the ACK/CNP terminates here
	// and its Flow/PSN/Ack/Flags/SentAt/INT fields carry over verbatim.
	if p.Type == packet.CNP {
		p.Flags |= packet.FlagCNPNotify
	}
	p.Type = packet.INFO
	p.Size = packet.ControlSize
	p.RxTime = pl.eng.Now()
	p.Port = 0
	if f := pl.flows.Get(p.Flow); f != nil {
		p.Port = int(f.port)
	}
	pl.c.InfoTx++
	pl.infoOut.Receive(p)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
