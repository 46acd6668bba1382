// Package fpga models Marlin's FPGA NIC (§5): the sender-side transport
// that runs the CC algorithm module and schedules traffic by emitting SCHE
// packets toward the programmable switch.
//
// The model is clocked at 322 MHz like the Alveo U280 build: every CC
// module execution is charged its algorithm's clock-cycle cost, which makes
// the paper's Challenge 3 (read-modify-write conflicts under bursty INFO
// arrivals) observable — disable the RX timer and conflicts corrupt CC
// state; enable it and they disappear (§5.3).
//
// Data paths mirror Figure 4:
//
//	INFO in ──parser──> per-port RX FIFO ──RX timer──> CC module ──┐
//	   timeouts/timers from the event generator ──────────────────┤
//	                                                               v
//	   scheduling FIFO (per port) <── rescheduling ── scheduler ──TX timer──> SCHE out
//
// plus the Slow Path executor, the BRAM flow store, and the QDMA logger.
// Receiver logic placed on the FPGA (Figure 2's dashed path) has no model
// here: it is the switch's own Module A, tofino.Receiver, which core wires
// to the FPGA end of the reserved port.
package fpga

import (
	"fmt"
	"math"

	"marlin/internal/cc"
	"marlin/internal/flowtab"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

// ClockHz is the FPGA fabric clock (§5.1: "a 322 MHz hardware clock").
const ClockHz = 322_000_000

// CyclePeriod is the duration of one fabric clock cycle (~3.1 ns).
const CyclePeriod = sim.Duration(int64(sim.Second) / ClockHz)

// slowPathLatency is the queueing delay before a posted Slow Path event
// executes.
const slowPathLatency = 100 * CyclePeriod

// BRAMBits is the on-chip BRAM budget (§8: "we utilized 72 Mb of BRAM to
// support 65,536 flows").
const BRAMBits = 72 * 1000 * 1000

// BytesPerFlow is the BRAM charged per flow: the 64 B cust-var region and
// the 64 B slwpth-var region. The intrinsic transport word lives in
// distributed RAM. At 128 B/flow the 72 Mb budget holds 70,312 flows,
// matching the paper's 65,536-flow capacity with headroom.
const BytesPerFlow = cc.StateSize + cc.StateSize

// MaxFlowsByBRAM returns how many flows fit the BRAM budget.
func MaxFlowsByBRAM() int { return BRAMBits / (BytesPerFlow * 8) }

// SchedulerMode selects the line-rate scheduler of §5.2 or the naive
// cyclic-scan baseline it replaces (Challenge 2 ablation).
type SchedulerMode int

// Scheduler modes.
const (
	// ReschedulingFIFO circulates scheduling events through per-port
	// FIFOs; the whole loop costs six clock cycles (§5.2).
	ReschedulingFIFO SchedulerMode = iota
	// CyclicScan scans the port's flow table looking for a schedulable
	// flow, spending one cycle per flow examined.
	CyclicScan
)

func (m SchedulerMode) String() string {
	if m == CyclicScan {
		return "scan"
	}
	return "fifo"
}

// Config configures a NIC instance.
type Config struct {
	// Ports is the number of switch data ports the NIC schedules for.
	Ports int
	// MaxFlows bounds flow IDs: StartFlow refuses an ID at or above it
	// (0 = MaxFlowsByBRAM(), the 72 Mb budget). It is a capacity, not an
	// allocation — the store holds pages only for the flows started.
	MaxFlows int
	// Algorithm is the deployed CC module.
	Algorithm cc.Algorithm
	// Params is the CC parameter block written to BRAM.
	Params cc.Params
	// TXTimerPPS paces SCHE emission per port; it must not exceed the
	// switch port's DATA packet rate or register queues overflow (§5.3).
	TXTimerPPS float64
	// RXTimerPPS paces INFO delivery from each RX FIFO to the CC module.
	// It must be <= TXTimerPPS (§5.3).
	RXTimerPPS float64
	// DisableRXTimer bypasses ingress pacing: INFO packets hit the CC
	// module at arrival rate, exposing RMW conflicts (ablation).
	DisableRXTimer bool
	// SingleRXFIFO funnels every INFO packet into one RX FIFO instead of
	// demultiplexing by switch port — the design §5.3 rejects: one FIFO
	// drained at the per-port rate cannot absorb the aggregate of all
	// ports, so INFO packets drop and the CC modules starve (ablation).
	SingleRXFIFO bool
	// Scheduler selects the §5.2 design or the scan baseline.
	Scheduler SchedulerMode
	// RXFIFODepth bounds each RX FIFO (0 = 4096 entries).
	RXFIFODepth int
	// DisableLog turns the fine-grained logging module off.
	DisableLog bool
	// LogCapacity bounds the log records retained for traced flows
	// (0 = 1<<20); records of untraced flows are counted, not retained.
	LogCapacity int
	// GoBackN matches the sender's retransmission discipline to a
	// go-back-N receiver (the RoCE mode): that receiver discards every
	// frame after a hole, so a retransmission must rewind the send
	// pointer and replay the tail, not selectively resend one PSN.
	// Without the rewind each discarded packet costs a NACK round trip
	// or, once the flow has nothing new to send, a full RTO.
	GoBackN bool
	// Pool supplies the SCHE packets the NIC creates: the tester island's,
	// shared with its pipeline, or the shared pool (nil) for a NIC built
	// outside a tester.
	Pool *packet.Pool
}

// Stats are the NIC's aggregate counters.
type Stats struct {
	InfoRx        uint64
	InfoDrops     uint64 // RX FIFO overflows
	ScheTx        uint64
	RtxTx         uint64
	Timeouts      uint64
	RMWConflicts  uint64 // lost CC updates with the RX timer disabled
	SlowPathRuns  uint64
	Completions   uint64
	SchedWasted   uint64 // TX slots that found no eligible flow, counting those the TX timer slept through
	ScanGiveUps   uint64 // scan-mode slots that exhausted the cycle budget
	EventsHandled uint64
}

// Plus returns the field-wise sum of two stats snapshots; sharded testers
// merge their per-partition NICs with it.
func (s Stats) Plus(o Stats) Stats {
	s.InfoRx += o.InfoRx
	s.InfoDrops += o.InfoDrops
	s.ScheTx += o.ScheTx
	s.RtxTx += o.RtxTx
	s.Timeouts += o.Timeouts
	s.RMWConflicts += o.RMWConflicts
	s.SlowPathRuns += o.SlowPathRuns
	s.Completions += o.Completions
	s.SchedWasted += o.SchedWasted
	s.ScanGiveUps += o.ScanGiveUps
	s.EventsHandled += o.EventsHandled
	return s
}

// slowEvent is the engine-event record of one queued Slow Path execution,
// taken from and returned to the NIC's free list (a flow may have several
// outstanding).
type slowEvent struct {
	flow    packet.FlowID
	code    uint8
	evType  cc.EventType
	timerID uint8
	next    *slowEvent
}

// flowState is the per-flow BRAM word plus model bookkeeping: one slot of
// the flow store, addressed by flow ID and reused when a finished flow's ID
// is started again. It is laid out as three 64 B parts, so a 64-flow page is
// Go's 12 KiB size class and a CC execution touches three cache lines: the
// transport word every SCHE and INFO reads, then the 64 B cust-var region,
// then the 64 B slwpth-var region (the last two are the BRAM charge). The
// handles of armed timers live in the NIC's timer table, in a block the
// flow holds only while a timer is armed; the CC module's RMW occupancy,
// read only with the RX timer disabled, lives in the NIC's busy table.
type flowState struct {
	una, nxt uint32
	end      uint32 // flow length in packets; 0 = unbounded
	cwnd     uint32
	rtxPSN   uint32
	flow     packet.FlowID // the slot's own ID: timer events carry only the slot
	rate     sim.Rate
	nextSend sim.Time // rate-mode pacing deadline
	started  sim.Time
	port     uint16
	// ect is the ECN codepoint stamped on the flow's SCHE packets and
	// carried through to its DATA packets by the switch pipeline.
	ect packet.ECT
	// alg indexes the NIC's module table (0 = the deployed default). Real
	// Marlin deploys one HLS module per build; the model relaxes that to
	// per-flow selection within one Mode so mixed-control coexistence
	// experiments (DCTCP vs CUBIC through one AQM) run on one NIC.
	alg     uint8
	active  bool
	inFIFO  bool // scheduling-event uniqueness (§5.2)
	rtxWait bool
	traced  bool // its log records are retained (TraceFlow, slot lifetime)
	inScan  bool // listed in the scan table of port (scan mode, slot lifetime)
	// armed has bit id set while timer id is pending: armTimer sets it, and
	// a cancel or the timer's firing clears it. Reading it spares the hot
	// paths a load of the engine's (often recycled) event record that
	// Handle.Armed and Handle.Cancel make.
	armed uint8
	// timers is the flow's block in the NIC's timer table, nonzero exactly
	// while armed is.
	timers timerRef
	cust   cc.State
	slow   cc.State
}

// CompletionFunc is invoked when a flow's final packet is acknowledged.
type CompletionFunc func(flow packet.FlowID, fct sim.Duration)

// NIC is the FPGA model.
type NIC struct {
	eng *sim.Engine
	cfg Config

	// flows is the flow store. A page is allocated when the first flow in it
	// starts and never moved, so a *flowState, the argument of its timer
	// events, stays valid for the NIC's lifetime: memory follows the flows a
	// test starts, while the BRAM bound stays a check at StartFlow. Events
	// naming a flow whose page was never allocated (Get is nil) are dropped
	// like events for an inactive flow.
	flows flowtab.Table[flowState]
	// timers holds the handles of the flows' armed timers, a block a flow.
	timers timerTable
	// busy is each flow's CC module RMW occupancy (Challenge 3), kept only
	// under DisableRXTimer, the one path that reads it.
	busy flowtab.Table[sim.Time]

	rxFIFO   []ring[*packet.Packet] // per-port INFO FIFOs
	rxActive []bool
	// rxTickFns holds one prebuilt RX-timer closure per port so pacing does
	// not allocate a closure per INFO packet.
	rxTickFns []sim.Func

	sched *scheduler

	// stalled freezes the RX and TX pacing timers (a NIC stall fault):
	// INFO packets still land in the RX FIFOs (and can overflow them, a
	// real loss) and CC timers still fire, but nothing is paced through
	// the CC module or onto the wire until the stall clears.
	stalled bool

	scheOut    netem.Node
	onComplete CompletionFunc

	logger *Logger
	stats  Stats
	// in and out are the CC module's reused input and output structs. INFO
	// arrivals, timer firings and Slow Path executions all run as top-level
	// engine events, never inside one another, so they share one pair. Only
	// EvStart can run inside another event's delivery (a completion callback
	// starting the next flow), so it has an Input of its own.
	in, startIn cc.Input
	out         cc.Output
	// algs is the module table flows index: the deployed default first, then
	// each distinct override by Name, at most 256 in all.
	algs []cc.Algorithm
	// timerFns holds one engine callback per timer ID, scheduled with the
	// flow's slot as its argument; slowFn runs a slowEvent, and slowFree is
	// the slowEvent free list.
	timerFns [cc.NumTimers]sim.ArgFunc
	slowFn   sim.ArgFunc
	slowFree *slowEvent

	// rtt holds the most recent rttWindow RTT probes (microseconds) for the
	// control plane's latency readout; rttEwma is a 1/16-gain average.
	rtt      pieceRing[float64]
	rttCount uint64
	rttEwma  float64
}

// rttWindow bounds retained RTT samples.
const rttWindow = 8192

// NewNIC validates cfg and builds the NIC.
func NewNIC(eng *sim.Engine, cfg Config) (*NIC, error) {
	if cfg.Ports <= 0 {
		return nil, fmt.Errorf("fpga: need at least one port")
	}
	if cfg.Ports > math.MaxUint16 {
		return nil, fmt.Errorf("fpga: %d ports exceed the flow word's %d", cfg.Ports, math.MaxUint16)
	}
	if cfg.Algorithm == nil {
		return nil, fmt.Errorf("fpga: no CC algorithm deployed")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxFlows == 0 {
		cfg.MaxFlows = MaxFlowsByBRAM()
	}
	if cfg.MaxFlows > MaxFlowsByBRAM() {
		return nil, fmt.Errorf("fpga: %d flows exceed BRAM capacity %d",
			cfg.MaxFlows, MaxFlowsByBRAM())
	}
	if cfg.TXTimerPPS <= 0 {
		return nil, fmt.Errorf("fpga: TXTimerPPS must be positive")
	}
	if cfg.RXTimerPPS <= 0 {
		cfg.RXTimerPPS = cfg.TXTimerPPS
	}
	if !cfg.DisableRXTimer && cfg.RXTimerPPS > cfg.TXTimerPPS {
		return nil, fmt.Errorf("fpga: RX timer (%.3g pps) must not exceed TX timer (%.3g pps), §5.3",
			cfg.RXTimerPPS, cfg.TXTimerPPS)
	}
	if cfg.RXFIFODepth <= 0 {
		cfg.RXFIFODepth = 4096
	}
	n := &NIC{
		eng:      eng,
		cfg:      cfg,
		rxFIFO:   make([]ring[*packet.Packet], cfg.Ports),
		rxActive: make([]bool, cfg.Ports),
		rtt:      pieceRing[float64]{capacity: rttWindow},
		algs:     []cc.Algorithm{cfg.Algorithm},
	}
	for id := range n.timerFns {
		id := uint8(id)
		n.timerFns[id] = func(arg any) { n.fireTimer(arg.(*flowState), id) }
	}
	n.slowFn = func(arg any) { n.runSlowPath(arg.(*slowEvent)) }
	n.rxTickFns = make([]sim.Func, cfg.Ports)
	for i := range n.rxTickFns {
		i := i
		n.rxTickFns[i] = func() { n.rxTick(i) }
	}
	n.sched = newScheduler(n)
	if !cfg.DisableLog {
		n.logger = NewLogger(cfg.LogCapacity)
	}
	return n, nil
}

// ConnectSche attaches the SCHE egress (the link to the switch).
func (n *NIC) ConnectSche(out netem.Node) { n.scheOut = out }

// OnComplete registers the flow-completion callback; the FPGA computes
// each FCT and reports it to the control plane (§7.4).
func (n *NIC) OnComplete(fn CompletionFunc) { n.onComplete = fn }

// Stats returns a snapshot of the NIC counters.
func (n *NIC) Stats() Stats {
	st := n.stats
	st.SchedWasted += n.sched.slept(n.eng.Now())
	return st
}

// CheckScheduler reports the first breach of the scheduling FIFOs'
// invariants (§5.2), or nil: a flow has at most one event in them, on its
// own port, exactly when its flow word says it has one.
func (n *NIC) CheckScheduler() error { return n.sched.check() }

// Logger returns the fine-grained logging module, or nil when disabled.
func (n *NIC) Logger() *Logger { return n.logger }

// Params returns the deployed parameter block.
func (n *NIC) Params() *cc.Params { return &n.cfg.Params }

// ActiveFlows counts flows currently in progress.
func (n *NIC) ActiveFlows() int {
	c := 0
	n.flows.Range(func(_ packet.FlowID, f *flowState) {
		if f.active {
			c++
		}
	})
	return c
}

// FlowProgress reports a flow's transport state (for tests and tracing);
// a flow never started reads as zero.
func (n *NIC) FlowProgress(flow packet.FlowID) (una, nxt uint32, active bool) {
	f := n.flows.Get(flow)
	if f == nil {
		return 0, 0, false
	}
	return f.una, f.nxt, f.active
}

// checkFlow refuses a flow ID the BRAM flow store cannot hold (at or above
// MaxFlows).
func (n *NIC) checkFlow(flow packet.FlowID) error {
	if int(flow) >= n.cfg.MaxFlows {
		return fmt.Errorf("fpga: flow %d exceeds BRAM capacity %d", flow, n.cfg.MaxFlows)
	}
	return nil
}

// CheckStart reports the error StartFlowWith would refuse the flow with —
// an ID the BRAM cannot hold, a port out of range, an algorithm of the
// other Mode, an ID already active, a full module table — without
// allocating or changing anything. StartFlowWith runs it first; a caller
// binding the flow elsewhere runs it before binding anything, so a refused
// flow leaves nothing behind.
func (n *NIC) CheckStart(flow packet.FlowID, port int, alg cc.Algorithm) error {
	if err := n.checkFlow(flow); err != nil {
		return err
	}
	if port < 0 || port >= n.cfg.Ports {
		return fmt.Errorf("fpga: port %d out of range [0,%d)", port, n.cfg.Ports)
	}
	if alg != nil && alg.Mode() != n.cfg.Algorithm.Mode() {
		return fmt.Errorf("fpga: flow algorithm %s is %s-mode, NIC schedules %s-mode",
			alg.Name(), alg.Mode(), n.cfg.Algorithm.Mode())
	}
	if f := n.flows.Get(flow); f != nil && f.active {
		return fmt.Errorf("fpga: flow %d already active", flow)
	}
	if alg != nil && len(n.algs) > math.MaxUint8 {
		if _, ok := n.module(alg); !ok {
			return fmt.Errorf("fpga: flow algorithm %s refused: the NIC's module table is full (%d modules)", alg.Name(), len(n.algs))
		}
	}
	return nil
}

// TraceFlow has the logger retain a flow's records from now on, across
// restarts of its ID; every other flow's records are only counted. Call it
// before StartFlow to keep the EvStart record too. An ID the flow store
// cannot hold is refused with the BRAM capacity error and allocates nothing.
func (n *NIC) TraceFlow(flow packet.FlowID) error {
	if err := n.checkFlow(flow); err != nil {
		return err
	}
	n.flows.Slot(flow).traced = true
	return nil
}

// StartFlow activates a flow of sizePkts full-MTU packets bound to a
// switch data port, running the NIC's deployed CC module and carrying its
// preferred ECN codepoint. Flow IDs index BRAM directly; a completed
// flow's ID may be reused.
func (n *NIC) StartFlow(flow packet.FlowID, port int, sizePkts uint32) error {
	return n.StartFlowWith(flow, port, sizePkts, nil, cc.PreferredECT(n.cfg.Algorithm))
}

// StartFlowWith activates a flow with a per-flow CC module and ECN
// codepoint. alg nil means the NIC's deployed module; a non-nil alg must
// match the deployed module's Mode, because the scheduler's eligibility
// test (window occupancy vs rate pacing, §5.2) is a port-wide datapath
// decision, not per-flow state. CheckStart says what it refuses.
func (n *NIC) StartFlowWith(flow packet.FlowID, port int, sizePkts uint32, alg cc.Algorithm, ect packet.ECT) error {
	if err := n.CheckStart(flow, port, alg); err != nil {
		return err
	}
	f := n.flows.Slot(flow)
	mod := n.moduleIndex(alg)
	listed := f.port
	// The ID keeps the scheduling event its last incarnation left queued on
	// its port (§5.2: at most one a flow); on another port the event goes.
	queued := f.inFIFO
	if queued && listed != uint16(port) {
		n.sched.unqueue(flow, listed)
		queued = false
	}
	if n.cfg.DisableRXTimer {
		*n.busy.Slot(flow) = 0
	}
	*f = flowState{
		flow:    flow,
		active:  true,
		port:    uint16(port),
		alg:     mod,
		ect:     ect,
		end:     sizePkts,
		cwnd:    n.cfg.Params.InitCwnd,
		rate:    n.cfg.Params.LineRate,
		started: n.eng.Now(),
		inFIFO:  queued,
		inScan:  f.inScan,
		traced:  f.traced,
	}
	n.algs[mod].InitFlow(&f.cust, &f.slow, &n.cfg.Params)
	n.sched.register(f, listed)
	n.startIn = cc.Input{Type: cc.EvStart}
	n.deliver(f, &n.startIn)
	return nil
}

// module finds alg's entry in the module table. Entries are matched by
// Name: StartFlowCC builds a fresh module for every flow, and a module's
// state lives in the flow's cust and slow regions, not in the module.
func (n *NIC) module(alg cc.Algorithm) (uint8, bool) {
	name := alg.Name()
	for i, m := range n.algs {
		if m.Name() == name {
			return uint8(i), true
		}
	}
	return 0, false
}

// moduleIndex returns alg's entry in the module table, adding it on first
// use. nil is the deployed default, entry 0. The index is one byte, so
// CheckStart refuses a 256th distinct override before this runs.
func (n *NIC) moduleIndex(alg cc.Algorithm) uint8 {
	if alg == nil {
		return 0
	}
	if i, ok := n.module(alg); ok {
		return i
	}
	n.algs = append(n.algs, alg)
	return uint8(len(n.algs) - 1)
}

// StopFlow deactivates a flow immediately (used when an experiment
// terminates flows, §7.3).
func (n *NIC) StopFlow(flow packet.FlowID) {
	f := n.flows.Get(flow)
	if f == nil || !f.active {
		return
	}
	n.sched.wakeFlow(f)
	n.cancelTimers(f)
	f.active = false
}

// InfoIn returns the Node the switch-facing link delivers INFO packets to.
func (n *NIC) InfoIn() netem.Node {
	return netem.NodeFunc(n.receiveInfo)
}

// receiveInfo is the parser stage: classify the INFO packet into the RX
// FIFO of the switch port it reports (§5.3 ingress control).
func (n *NIC) receiveInfo(p *packet.Packet) {
	if p.Type != packet.INFO {
		p.Release()
		return
	}
	n.stats.InfoRx++
	if n.cfg.DisableRXTimer {
		// Ablation: straight to the CC module at arrival rate.
		n.processInfo(p)
		p.Release()
		return
	}
	port := p.Port
	if n.cfg.SingleRXFIFO || port < 0 || port >= n.cfg.Ports {
		port = 0
	}
	if n.rxFIFO[port].len() >= n.cfg.RXFIFODepth {
		n.stats.InfoDrops++
		p.Release()
		return
	}
	n.rxFIFO[port].push(p)
	if !n.rxActive[port] && !n.stalled {
		n.rxActive[port] = true
		n.eng.Schedule(sim.Interval(n.cfg.RXTimerPPS), n.rxTickFns[port])
	}
}

// SetStall gates the NIC's pacing timers (a NICStall fault). While
// stalled, RX ticks and TX slots stop; arriving INFO packets queue in the
// RX FIFOs (overflows become real InfoDrops) and CC timers (e.g. RTO)
// still fire — their retransmission pushes accumulate in the priority FIFO
// and flush when the stall clears. The DisableRXTimer ablation path is
// unaffected by design: it bypasses the timers the stall models. Clearing
// the stall re-arms every timer that has pending work.
func (n *NIC) SetStall(stalled bool) {
	if n.stalled == stalled {
		return
	}
	n.stalled = stalled
	if stalled {
		// End every TX sleep: with the timers gated, the per-slot tick
		// would stop at the first slot boundary.
		for port := range n.cfg.Ports {
			n.sched.wake(port)
		}
		return
	}
	for port := 0; port < n.cfg.Ports; port++ {
		if !n.rxActive[port] && n.rxFIFO[port].len() > 0 {
			n.rxActive[port] = true
			n.eng.Schedule(sim.Interval(n.cfg.RXTimerPPS), n.rxTickFns[port])
		}
		if n.sched.hasWork(port) {
			n.sched.kick(port)
		}
	}
}

// Stalled reports whether the pacing timers are gated.
func (n *NIC) Stalled() bool { return n.stalled }

// rxTick is one RX timer period: submit one INFO packet to the CC module.
func (n *NIC) rxTick(port int) {
	if n.stalled {
		// Freeze: drop the timer (SetStall(false) re-arms it) but keep the
		// FIFO contents for delivery after the stall.
		n.rxActive[port] = false
		return
	}
	q := &n.rxFIFO[port]
	if q.len() == 0 {
		n.rxActive[port] = false
		return
	}
	p := q.pop()
	n.processInfo(p)
	p.Release()
	if q.len() == 0 {
		n.rxActive[port] = false
		return
	}
	n.eng.Schedule(sim.Interval(n.cfg.RXTimerPPS), n.rxTickFns[port])
}

func (n *NIC) processInfo(p *packet.Packet) {
	f := n.flows.Get(p.Flow)
	if f == nil || !f.active {
		return
	}
	var rtt sim.Duration
	if p.SentAt > 0 {
		rtt = n.eng.Now().Sub(p.SentAt)
		n.sampleRTT(rtt)
	}
	n.in = cc.Input{
		Type:      cc.EvRx,
		PSN:       p.PSN,
		Ack:       p.Ack,
		Flags:     p.Flags,
		ProbedRTT: rtt,
		INT:       p.INT,
	}
	n.deliver(f, &n.in)
}

// sampleRTT records one probe for the latency registers.
func (n *NIC) sampleRTT(rtt sim.Duration) {
	us := rtt.Microseconds()
	n.rttCount++
	if n.rttEwma == 0 {
		n.rttEwma = us
	} else {
		n.rttEwma += (us - n.rttEwma) / 16
	}
	n.rtt.push(us)
}

// RTTSamples returns the retained RTT probes in microseconds (recent
// window) plus the total probe count and the running EWMA.
func (n *NIC) RTTSamples() (samples []float64, count uint64, ewmaUs float64) {
	return n.rtt.appendTo(nil), n.rttCount, n.rttEwma
}

// deliver runs one CC module execution for an active flow: populate the
// intrinsic inputs, charge the cycle cost, apply the outputs, and advance
// the transport state.
func (n *NIC) deliver(f *flowState, in *cc.Input) {
	now := n.eng.Now()
	n.stats.EventsHandled++

	// Challenge 3: with pacing disabled, an event arriving while the
	// previous RMW is still in flight reads stale state; the hardware
	// would either corrupt the word or stall. We model the documented
	// failure ("read-write conflicts of CC parameters, leading to
	// incorrect execution") by dropping the conflicting update.
	alg := n.algs[f.alg]
	if n.cfg.DisableRXTimer {
		busy := n.busy.Slot(f.flow)
		if now < *busy {
			n.stats.RMWConflicts++
			return
		}
		*busy = now.Add(sim.Duration(alg.FastPathCycles()) * CyclePeriod)
	}

	in.Una, in.Nxt = f.una, f.nxt
	in.Cwnd, in.Rate = f.cwnd, f.rate
	in.MTU = n.cfg.Params.MTU
	in.Params = &n.cfg.Params
	in.Cust, in.Slow = &f.cust, &f.slow
	in.Timestamp = now

	n.out.Reset()
	alg.OnEvent(in, &n.out)
	n.applyOutput(f, in, &n.out)
}

func (n *NIC) applyOutput(f *flowState, in *cc.Input, out *cc.Output) {
	if out.SetCwnd {
		f.cwnd = out.Cwnd
	}
	if out.SetRate {
		f.rate = out.Rate
	}
	if out.HasLog && n.logger != nil {
		if f.traced {
			n.logger.Record(n.eng.Now(), f.flow, out.Log)
		} else {
			n.logger.Count()
		}
	}
	for i := 0; i < out.NumStops; i++ {
		n.stopTimer(f, out.StopTimers[i])
	}
	for i := 0; i < out.NumTimers; i++ {
		n.armTimer(f, out.Timers[i])
	}
	if out.SlowPath {
		n.postSlowPath(f.flow, out.SlowPathCode, in.Type, in.TimerID)
	}
	if out.Rtx {
		f.rtxWait = true
		f.rtxPSN = out.RtxPSN
		// Go-back-N: the receiver discarded everything after the hole,
		// so replay from there — the rtx path resends RtxPSN itself and
		// the send pointer rewinds so the scheduler re-emits the rest.
		if n.cfg.GoBackN && cc.SeqLT(out.RtxPSN, f.nxt) {
			f.nxt = out.RtxPSN + 1
		}
		n.sched.pushPriority(f)
	}
	// Advance una after the module ran (it compares Ack to the old una).
	if in.Type == cc.EvRx && cc.SeqLT(f.una, in.Ack) {
		f.una = in.Ack
		n.checkComplete(f)
		if !f.active {
			return
		}
	}
	if out.Schedule {
		n.sched.push(f)
	}
}

// ensureRTO is the transmit-side retransmission-timer backstop for
// window-mode flows. CC modules own TimerRTO and re-arm it on every ACK,
// but an ACK covering everything in flight stops it (the flow is idle from
// the module's view). Data sent after that point — the reopened window's
// tail, or an entire first window — has no later ACK to arm a timer off
// of; if it is lost there is also nothing in flight to draw dup ACKs, so
// without this the flow deadlocks. Arming at the RTO floor is safe: the
// next ACK re-arms with the module's own estimate, and flow completion
// cancels all timers.
func (n *NIC) ensureRTO(f *flowState) {
	if n.cfg.Algorithm.Mode() != cc.WindowMode || f.armed&(1<<cc.TimerRTO) != 0 {
		return
	}
	n.armTimer(f, cc.TimerReq{ID: cc.TimerRTO, After: n.cfg.Params.RTOMin})
}

// armTimer (re)arms one of the flow's timers, taking a timer block first
// if none is armed. The event's argument is the slot itself: a pointer in
// an interface allocates nothing, and flow-store pages never move.
func (n *NIC) armTimer(f *flowState, req cc.TimerReq) {
	id := req.ID
	if f.timers == 0 {
		f.timers = n.timers.take()
	}
	h := n.timers.handles(f.timers)
	if f.armed&(1<<id) != 0 {
		h[id].Cancel()
	}
	h[id] = n.eng.ScheduleArg(req.After, n.timerFns[id], f)
	f.armed |= 1 << id
}

// stopTimer cancels one of the flow's timers if it is armed.
func (n *NIC) stopTimer(f *flowState, id uint8) {
	if f.armed&(1<<id) != 0 {
		n.timers.handles(f.timers)[id].Cancel()
		n.disarm(f, id)
	}
}

// disarm clears a timer's armed bit, returning the flow's timer block once
// no timer is armed.
func (n *NIC) disarm(f *flowState, id uint8) {
	if f.armed &^= 1 << id; f.armed == 0 {
		n.timers.give(f.timers)
		f.timers = 0
	}
}

func (n *NIC) fireTimer(f *flowState, id uint8) {
	n.disarm(f, id)
	if !f.active {
		return
	}
	if id == cc.TimerRTO {
		n.stats.Timeouts++
		n.in = cc.Input{Type: cc.EvTimeout}
	} else {
		n.in = cc.Input{Type: cc.EvTimer, TimerID: id}
	}
	n.deliver(f, &n.in)
}

func (n *NIC) cancelTimers(f *flowState) {
	for id := range uint8(cc.NumTimers) {
		n.stopTimer(f, id)
	}
}

// postSlowPath queues a Slow Path execution (§5.4): it runs after the
// configured latency with write access to the slwpth-var region.
func (n *NIC) postSlowPath(flow packet.FlowID, code uint8, evType cc.EventType, timerID uint8) {
	ev := n.slowFree
	if ev == nil {
		ev = new(slowEvent)
	} else {
		n.slowFree = ev.next
	}
	*ev = slowEvent{flow: flow, code: code, evType: evType, timerID: timerID}
	n.eng.ScheduleArg(slowPathLatency, n.slowFn, ev)
}

// runSlowPath executes a queued Slow Path event and recycles its record.
func (n *NIC) runSlowPath(ev *slowEvent) {
	e := *ev
	ev.next = n.slowFree
	n.slowFree = ev
	f := n.flows.Get(e.flow)
	if !f.active {
		return
	}
	n.stats.SlowPathRuns++
	n.in = cc.Input{
		Type: e.evType, TimerID: e.timerID,
		Una: f.una, Nxt: f.nxt, Cwnd: f.cwnd, Rate: f.rate,
		MTU: n.cfg.Params.MTU, Params: &n.cfg.Params,
		Cust: &f.cust, Slow: &f.slow, Timestamp: n.eng.Now(),
	}
	n.out.Reset()
	n.algs[f.alg].OnSlowPath(e.code, &f.cust, &f.slow, &n.in, &n.out)
	if n.out.SetCwnd {
		f.cwnd = n.out.Cwnd
	}
	if n.out.SetRate {
		f.rate = n.out.Rate
	}
}

func (n *NIC) checkComplete(f *flowState) {
	if f.end == 0 || cc.SeqLT(f.una, f.end) {
		return
	}
	fct := n.eng.Now().Sub(f.started)
	n.sched.wakeFlow(f)
	n.cancelTimers(f)
	f.active = false
	n.stats.Completions++
	if n.onComplete != nil {
		n.onComplete(f.flow, fct)
	}
}

// emitSche sends one SCHE packet toward the switch, stamped with the
// flow's ECN codepoint so the pipeline's DATA generator can carry it.
func (n *NIC) emitSche(f *flowState, psn uint32, port int, rtx bool) {
	if n.scheOut == nil {
		return
	}
	p := n.cfg.Pool.NewSche(f.flow, psn, port, n.eng.Now())
	p.Flags |= f.ect.Bits()
	if rtx {
		p.Flags |= packet.FlagRetransmit
		n.stats.RtxTx++
	}
	n.stats.ScheTx++
	n.scheOut.Receive(p)
}
