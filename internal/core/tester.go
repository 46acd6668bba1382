// Package core assembles Marlin's devices into a runnable tester: the
// programmable-switch pipeline, the FPGA NIC, the 100 Gbps device
// interconnect, and an emulated tested network, wired as in Figure 1.
//
// Topology. The tested network is whatever fabric.Build wires for
// Config.Topology. Its zero value is the paper's canonical arrangement (§7.1:
// "the sender and receiver are connected with a programmable switch via
// twelve 100 Gbps links each"): the tester's data ports send DATA through an
// intermediate switch that forwards each flow to a destination port, where
// the tester's own receiver logic generates ACKs that travel back over
// reverse links. Congestion appears wherever the flow routing concentrates
// traffic (pass-through for §7.2, fan-in for §7.3). A named Topology swaps
// the one switch for a multi-switch fabric; either way New builds the
// tester from an island plan (sharded.go), by default a single island.
//
// Configuration. Config's zero values select the paper's defaults, and
// Resolve is the one place that fills them in and checks the rules between
// fields; New and the control plane's Spec compiler both call it.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"marlin/internal/aqm"
	"marlin/internal/cc"
	"marlin/internal/fabric"
	"marlin/internal/faults"
	"marlin/internal/flowtab"
	"marlin/internal/fpga"
	"marlin/internal/measure"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/shard"
	"marlin/internal/sim"
	"marlin/internal/tofino"
	"marlin/internal/workload"
)

// Config assembles a tester. Zero values select the paper's defaults.
type Config struct {
	// Algorithm is the CC module to deploy (required).
	Algorithm cc.Algorithm
	// Params is the CC parameter block (zero = cc.DefaultParams).
	Params cc.Params
	// MTU is the DATA frame size (default 1024, §3.3).
	MTU int
	// PortRate is the per-port line rate (default 100 Gbps).
	PortRate sim.Rate
	// DataPorts limits how many of the pipeline's data ports the test
	// uses (default: all the plan provides).
	DataPorts int
	// Receiver selects Module A's behaviour (§4.1). The zero value runs
	// the algorithm's own receiver: TCP for window algorithms, RoCE for
	// rate algorithms. RoCEReceiver and ForceTCPReceiver override it; the
	// effective config (Tester.Config) holds the mode that runs.
	Receiver tofino.ReceiverMode
	// LinkDelay is the one-way delay of each tested-network link
	// (default 2 us).
	LinkDelay sim.Duration
	// AQM is the marking policy of every tested-network egress queue:
	// the paper's step ECN (aqm.KindECN, K in packets of the resolved
	// MTU) or a discipline (RED, PIE, CoDel, PI2, DualPI2). The zero value
	// keeps drop-tail without marking.
	AQM aqm.Spec
	// NetQueueBytes bounds each tested-network egress queue
	// (default 256 KiB).
	NetQueueBytes int
	// MaxFlows bounds concurrent flows (default 65,536-capable).
	MaxFlows int
	// Scheduler selects the FPGA scheduler design (§5.2 vs scan).
	Scheduler fpga.SchedulerMode
	// SingleRXFIFO funnels all INFO into one FIFO (§5.3 ablation).
	SingleRXFIFO bool
	// SharedQueue uses one switch register queue (§4.2 ablation).
	SharedQueue bool
	// TXTimerPPS overrides the FPGA's per-port SCHE pacing. The default
	// is the plan's per-port DATA rate; raising it overruns the switch
	// queues (Challenge 1 ablation).
	TXTimerPPS float64
	// EnableINT stamps in-band telemetry on DATA packets at every
	// tested-network hop (for INT-based CC such as HPCC).
	EnableINT bool
	// ReceiverOnFPGA moves the receiver logic from the switch to the
	// FPGA over the reserved port (Figure 2's dashed path, §4.1).
	ReceiverOnFPGA bool
	// ForwardJitter adds uniform [0, ForwardJitter] propagation jitter
	// on the tested network's egress links; jitter beyond the frame gap
	// reorders DATA packets.
	ForwardJitter sim.Duration
	// ExtraHops inserts additional store-and-forward hops on every
	// forward path (leaf/spine-depth networks); each hop adds one link
	// of LinkDelay and, with EnableINT, one telemetry stack entry.
	ExtraHops int
	// EnablePFC makes the tested network lossless: each egress queue
	// pauses its upstream links at the XOFF watermark (RoCE fabrics).
	EnablePFC bool
	// Topology replaces the canonical single switch with a multi-switch
	// fabric (internal/fabric): the tester's data ports attach as hosts
	// and flows route toward their receiver port's leaf, with
	// deterministic ECMP where the shape offers equal-cost paths. The
	// zero value keeps the §7.1 single-switch arrangement, byte for
	// byte. Mutually exclusive with ExtraHops (the fabric has real
	// hops).
	Topology fabric.Spec
	// Shards selects the island plan the tester is assembled from. 0 is
	// one island: every port on one pipeline, one NIC and one device-cable
	// pair, on the caller's engine. Shards > 0 partitions the Topology
	// along its natural fault domains (fabric.PartitionSpec), one island
	// with its own engine and hardware slice per partition, and up to
	// Shards worker goroutines run rounds bounded by the fabric's minimum
	// inter-partition propagation delay. Outputs are byte-identical for
	// every Shards >= 1 and any GOMAXPROCS; 0 models fewer cables and NIC
	// slices, so it agrees with them only statistically (see sharded.go).
	// Shards > 0 requires a Topology and excludes EnablePFC and
	// ReceiverOnFPGA.
	Shards int
	// Seed drives all randomness.
	Seed uint64
}

// Tester is an assembled Marlin instance plus its tested network.
type Tester struct {
	// Eng carries user schedules, fault and pattern plans, and monitor
	// probes. A one-island build runs its devices on it too; with Shards > 0
	// it is the runner's control engine, whose events execute at round
	// barriers while every island clock sits exactly at their timestamp.
	Eng *sim.Engine
	// Fab is the tested network, of whatever shape Config.Topology names.
	Fab  *fabric.Fabric
	FCTs *measure.FCTRecorder

	cfg  Config
	plan tofino.Plan
	// flows holds what core knows of each flow the tester started. route is
	// the routing column, the receiver port plus one (0: unbound), written
	// by bind for started and external flows alike. It is a table of its
	// own because the tested network reads it on every hop: 2 B a flow stays
	// in cache at 64k flows where a 16 B row does not.
	flows flowtab.Table[flowEntry]
	route flowtab.Table[int16]

	// The tester hardware, one island per partition that owns data ports
	// (ascending partition; exactly one on a Shards == 0 build).
	islands    []*island
	portIsland []*island // global data port -> owning island
	portLocal  []int     // global data port -> port index within its island

	// pools holds the packet pools, one a partition engine: a partition's
	// devices and InjectData for its TX ports draw from its pool, and a
	// packet crossing the cut changes pools on delivery (shard.SetPools).
	// reserve holds the free packets the runner's barrier took from them
	// and has not handed back yet.
	pools   []*packet.Pool
	reserve packet.Pool

	userComplete func(flow packet.FlowID, fct sim.Duration)

	faultPlan faults.Plan
	faultMon  *faults.Monitor
	egress    []*netem.Queue // every tested-network egress queue, for ecnMarks

	patternPlan workload.Plan
	patternDrv  *workload.Driver
	overloadMon *measure.OverloadMonitor

	// Set with Shards > 0 only: the runner driving the island engines in
	// conservative rounds, and those engines.
	runner   *shard.Runner
	partEngs []*sim.Engine
}

// flowEntry is one row of Tester.flows. A flow's start time is not kept:
// the NIC that times the flow reports its FCT at completion, so the start
// is the completion time less the FCT.
type flowEntry struct {
	size uint32
	// island is the TX-side island's index in Tester.islands plus one; 0 for
	// never-started and external flows.
	island uint32
}

// bind routes a flow to receiver port rx.
func (t *Tester) bind(flow packet.FlowID, rx int) {
	*t.route.Slot(flow) = int16(rx + 1)
}

// dst routes a packet of the tested network by its flow's receiver port;
// an unknown flow routes to -1 (the switch drops it and counts it unrouted).
func (t *Tester) dst(p *packet.Packet) int {
	if r := t.route.Get(p.Flow); r != nil {
		return int(*r) - 1
	}
	return -1
}

// ForceTCPReceiver is the Config.Receiver value that runs the TCP receiver
// whatever the algorithm: tofino.TCPReceiver is the zero value, which runs
// the algorithm's own.
const ForceTCPReceiver tofino.ReceiverMode = -1

// Resolve checks cfg's cross-field rules, fills in the paper's defaults
// (MTU 1024, 100 Gbps ports, cc.DefaultParams, 2 us tested-network links,
// the algorithm's own receiver), and shrinks the port plan to the ports
// actually used so validation and throughput accounting stay honest. It is
// the one home of those defaults and rules: New builds from its result, and
// the control plane calls it to validate a Spec and to read the defaults.
// Resolve a Config once: a resolved TCP receiver under a rate algorithm
// resolves again to RoCE.
func Resolve(cfg Config) (Config, tofino.Plan, error) {
	if cfg.Algorithm == nil {
		return cfg, tofino.Plan{}, fmt.Errorf("core: no CC algorithm configured")
	}
	if !cfg.Topology.IsZero() && cfg.ExtraHops > 0 {
		return cfg, tofino.Plan{}, fmt.Errorf("core: ExtraHops applies only to the canonical single-switch network; the %s fabric has real hops", cfg.Topology)
	}
	if cfg.MTU == 0 {
		cfg.MTU = 1024
	}
	if cfg.PortRate == 0 {
		cfg.PortRate = 100 * sim.Gbps
	}
	if cfg.Params.MTU == 0 {
		cfg.Params = cc.DefaultParams(cfg.PortRate, cfg.MTU)
	}
	if cfg.LinkDelay == 0 {
		cfg.LinkDelay = sim.Micros(2)
	}
	switch {
	case cfg.Receiver == ForceTCPReceiver:
		cfg.Receiver = tofino.TCPReceiver
	case cfg.Receiver == tofino.TCPReceiver && cfg.Algorithm.Mode() == cc.RateMode:
		cfg.Receiver = tofino.RoCEReceiver
	}

	plan, err := tofino.NewPlan(cfg.MTU, cfg.PortRate)
	if err != nil {
		return cfg, tofino.Plan{}, err
	}
	if cfg.DataPorts == 0 || cfg.DataPorts > plan.DataPorts {
		cfg.DataPorts = plan.DataPorts
	}
	plan.DataPorts = cfg.DataPorts
	plan.Throughput = sim.Rate(int64(cfg.PortRate) * int64(cfg.DataPorts))

	switch {
	case cfg.Shards <= 0:
	case cfg.Topology.IsZero():
		return cfg, plan, fmt.Errorf("core: Shards requires a multi-switch Topology (the canonical single switch has no cut to parallelize over)")
	case cfg.EnablePFC:
		return cfg, plan, fmt.Errorf("core: Shards and EnablePFC are incompatible (pause frames would act across partitions mid-round)")
	case cfg.ReceiverOnFPGA:
		return cfg, plan, fmt.Errorf("core: Shards and ReceiverOnFPGA are incompatible (the reserved-port path is not partitioned)")
	}
	return cfg, plan, nil
}

// Marking splits a resolved config's marking policy into a tested-network
// queue's two inputs: step ECN's byte threshold, compared inline, or a
// discipline. It is the one place a step-ECN K becomes bytes.
func (cfg Config) Marking() (netem.ECNConfig, aqm.Spec) {
	if cfg.AQM.Kind == aqm.KindECN {
		return netem.StepMarking(cfg.AQM.K, cfg.Params.MTU), aqm.Spec{}
	}
	return netem.ECNConfig{}, cfg.AQM
}

// New builds and wires a tester: the island plan, each island's slice of
// the tester hardware, the tested network, and the reverse ACK paths. With
// Shards == 0 the plan is one island on eng holding every port; with
// Shards > 0 it is the topology's partition plan, one engine per island,
// and every cross-island hand-off goes through the shard runner.
func New(eng *sim.Engine, cfg Config) (*Tester, error) {
	cfg, plan, err := Resolve(cfg)
	if err != nil {
		return nil, err
	}
	t := &Tester{
		Eng:        eng,
		FCTs:       &measure.FCTRecorder{},
		cfg:        cfg,
		plan:       plan,
		portIsland: make([]*island, cfg.DataPorts),
		portLocal:  make([]int, cfg.DataPorts),
	}

	// The tested network routes by destination port, whatever its shape.
	ecn, disc := cfg.Marking()
	fcfg := fabric.Config{
		Spec:       cfg.Topology,
		Hosts:      cfg.DataPorts,
		PortRate:   cfg.PortRate,
		LinkDelay:  cfg.LinkDelay,
		QueueBytes: cfg.NetQueueBytes,
		ECN:        ecn,
		AQM:        disc,
		EnableINT:  cfg.EnableINT,
		Jitter:     cfg.ForwardJitter,
		ExtraHops:  cfg.ExtraHops,
		EnablePFC:  cfg.EnablePFC,
		Seed:       cfg.Seed,
		Dst:        t.dst,
	}

	pplan := fabric.PartitionPlan{Parts: 1, HostPart: make([]int, cfg.DataPorts)}
	engs := []*sim.Engine{eng}
	if cfg.Shards > 0 {
		if pplan, err = fabric.PartitionSpec(cfg.Topology, cfg.DataPorts); err != nil {
			return nil, err
		}
		engs = make([]*sim.Engine, pplan.Parts)
		for g := range engs {
			engs[g] = sim.NewEngine()
		}
		t.partEngs = engs
		// Every trunk is built with LinkDelay and every reverse ACK link
		// with a multiple of it, so no hand-off between islands arrives
		// sooner: that is the runner's lookahead.
		if t.runner, err = shard.New(eng, engs, cfg.LinkDelay, cfg.Shards); err != nil {
			return nil, err
		}
		// Each switch lives on its island's engine, host endpoints on their
		// leaf's; trunks crossing the cut drain into runner portals.
		fcfg.Engines = func(swIdx int) *sim.Engine { return engs[pplan.SwitchPart[swIdx]] }
		fcfg.Remote = t.runner.Portal
	}

	t.pools = make([]*packet.Pool, pplan.Parts)
	for g := range t.pools {
		t.pools[g] = new(packet.Pool)
	}
	if t.runner != nil {
		t.runner.SetPools(t.pools, &t.reserve)
	}
	// An island gets one local port per data port whose host lives in its
	// partition, in ascending global order; a partition of pure transit
	// switches gets none. fcfg.Sinks[p] is where the network delivers DATA
	// addressed to port p; completions are recorded as they happen, and on
	// a sharded build replayed on the control engine at the barrier.
	groups := make([][]int, pplan.Parts)
	for p, g := range pplan.HostPart {
		groups[g] = append(groups[g], p)
	}
	fcfg.Sinks = make([]netem.Node, cfg.DataPorts)
	for g, ports := range groups {
		if len(ports) == 0 {
			continue
		}
		isl, err := newIsland(engs[g], g, len(ports), cfg, plan, t.pools[g])
		if err != nil {
			return nil, err
		}
		for li, p := range ports {
			t.portIsland[p], t.portLocal[p] = isl, li
			fcfg.Sinks[p] = isl.pl.DataIn(li)
		}
		isl.nic.OnComplete(t.completion(g))
		isl.idx = len(t.islands)
		t.islands = append(t.islands, isl)
	}

	if cfg.ReceiverOnFPGA {
		// Reserved-port pair (§4.3): truncated DATA to the pipeline's
		// Module A, placed on the FPGA, and one cable carrying every port's
		// ACK/NACK/CNP responses back to the switch, which routes them by
		// arrival port.
		isl := t.islands[0]
		recv := isl.pl.Receiver()
		back := isl.deviceLink(cfg, isl.pl.FPGAAckIn())
		for p := range cfg.DataPorts {
			recv.ConnectAck(p, back)
		}
		isl.pl.ConnectRxForward(isl.deviceLink(cfg, recv.Node()))
	}

	// Tested network, of whatever shape: tester -> Fab -> tester.
	if t.Fab, err = fabric.Build(eng, fcfg); err != nil {
		return nil, err
	}

	// Each data port sends into its uplink and gets a reverse ACK link,
	// provisioned to the network's forward diameter, into its own island's
	// pipeline; on a sharded build the link drains into its island's ACK
	// router instead.
	revDelay := sim.Duration(cfg.Topology.Diameter()) * cfg.LinkDelay
	routers := t.ackRouters(pplan.Parts)
	for p, isl := range t.portIsland {
		isl.pl.ConnectDataPort(t.portLocal[p], t.Fab.HostUplink(p))
		rev := isl.link(netem.LinkConfig{
			Rate: cfg.PortRate, Delay: revDelay, QueueBytes: 1 << 20,
		}, isl.pl.AckIn())
		if routers != nil {
			rev.SetRemote(routers[isl.part])
		}
		isl.pl.ConnectAckPort(t.portLocal[p], rev)
	}
	return t, nil
}

// PFCPauses reports pause episodes across all PFC controllers (0 when PFC
// is disabled).
func (t *Tester) PFCPauses() uint64 { return t.Fab.PFCPauses() }

// Switches lists the tested network's switches in build order.
func (t *Tester) Switches() []*netem.Switch { return t.Fab.Switches() }

// NetworkStats snapshots per-switch, per-port telemetry of the tested
// network (queue depth, pause state, drops, forwarded counts per hop).
func (t *Tester) NetworkStats() []netem.Stats { return t.Fab.Stats() }

// ECMPPaths lists the fabric's per-path traffic counters (nil for the
// single switch, which has no equal-cost choices).
func (t *Tester) ECMPPaths() []fabric.PathCounter { return t.Fab.ECMPPaths() }

// Plan returns the port plan in force.
func (t *Tester) Plan() tofino.Plan { return t.plan }

// Config returns the tester's effective configuration.
func (t *Tester) Config() Config { return t.cfg }

// ForwardLink returns the tested network's last-hop link toward receiver
// port rx; experiments attach loss/ECN scripts to it (§7.1).
func (t *Tester) ForwardLink(rx int) *netem.Link { return t.Fab.HostDownlink(rx) }

// TxLink returns the link from tester data port i into the network.
func (t *Tester) TxLink(i int) *netem.Link { return t.Fab.HostUplink(i) }

// ResolveLink maps a fault-plan link name onto an emulated link
// (implementing faults.Target). On every shape "txN" is tester data port
// N's uplink and "fwdN" its forward link toward receiver port N; the
// fabric's own names resolve as fabric.ResolveLink documents
// ("leaf0->spine1", "host2->leaf0", "tested-network->host1").
func (t *Tester) ResolveLink(name string) (*netem.Link, error) {
	for _, a := range [...]struct {
		prefix string
		link   func(int) *netem.Link
	}{{"tx", t.TxLink}, {"fwd", t.ForwardLink}} {
		if i, ok := portAlias(name, a.prefix); ok {
			if i < 0 || i >= t.cfg.DataPorts {
				return nil, fmt.Errorf("core: %s out of range [%s0,%s%d]", name, a.prefix, a.prefix, t.cfg.DataPorts-1)
			}
			return a.link(i), nil
		}
	}
	return t.Fab.ResolveLink(name)
}

// portAlias recognises prefixed port names like "tx3" or "fwd0".
func portAlias(name, prefix string) (int, bool) {
	num, ok := strings.CutPrefix(name, prefix)
	if !ok || num == "" || strings.Trim(num, "0123456789") != "" {
		return 0, false
	}
	// A number past int's range names no port; the caller refuses -1.
	i, err := strconv.Atoi(num)
	if err != nil {
		return -1, true
	}
	return i, true
}

// StallNIC gates the FPGA NIC's pacing timers on every island
// (implementing faults.Target).
func (t *Tester) StallNIC(stalled bool) {
	for _, isl := range t.islands {
		isl.nic.SetStall(stalled)
	}
}

// InstallFaults schedules a fault plan against this tester and arms the
// recovery monitor. Call once, before running; recoveries surface in
// FaultRecoveries, controlplane snapshots, and the loss report.
func (t *Tester) InstallFaults(plan faults.Plan) (*faults.Monitor, error) {
	if t.faultMon != nil {
		return nil, fmt.Errorf("core: fault plan already installed")
	}
	if err := faults.Apply(t.Eng, t, plan); err != nil {
		return nil, err
	}
	t.faultPlan = plan
	t.faultMon = faults.NewMonitor(t.Eng, plan,
		t.deliveredBytes,
		func() uint64 { return t.NICStats().RtxTx },
		t.ecnMarks)
	return t.faultMon, nil
}

// FaultPlan returns the installed fault plan (zero when none).
func (t *Tester) FaultPlan() faults.Plan { return t.faultPlan }

// FaultMonitor returns the armed recovery monitor, or nil.
func (t *Tester) FaultMonitor() *faults.Monitor { return t.faultMon }

// FaultRecoveries reports per-fault recovery telemetry (nil when no plan
// is installed).
func (t *Tester) FaultRecoveries() []faults.Recovery {
	if t.faultMon == nil {
		return nil
	}
	return t.faultMon.Report()
}

// BindExternalFlow routes a tester-external flow (pattern flood traffic
// injected past the NIC) toward receiver port rx, implementing
// workload.Target. The flow has no NIC or CC state: the tested network
// forwards, queues, marks, and drops its frames like any other DATA, and
// the ACKs the receiver generates are discarded at the inactive flow.
func (t *Tester) BindExternalFlow(flow packet.FlowID, rx int) error {
	if rx < 0 || rx >= t.cfg.DataPorts {
		return fmt.Errorf("core: rx port %d out of range [0,%d)", rx, t.cfg.DataPorts)
	}
	t.bind(flow, rx)
	return nil
}

// InjectData sends one raw DATA frame carrying the given ECN codepoint for
// a bound external flow into data port tx's uplink, implementing
// workload.Target. The frame comes from the pool of the island owning tx:
// on a sharded tester the pattern driver runs on the control engine, at a
// barrier, while no island goroutine runs.
func (t *Tester) InjectData(flow packet.FlowID, tx int, psn uint32, frameBytes int, ect packet.ECT) {
	pool := t.portIsland[tx].pool
	t.TxLink(tx).Send(pool.NewDataECT(flow, psn, frameBytes, t.Eng.Now(), ect))
}

// InstallPatterns compiles a traffic-pattern plan onto this tester: a
// workload driver arms every pattern's arrival, storm, and flood events,
// and an overload monitor starts watching the victim port (the plan's
// explicit victim, else port 0). Call once, before running; the telemetry
// surfaces through OverloadMonitor and controlplane snapshots.
func (t *Tester) InstallPatterns(plan workload.Plan) (*measure.OverloadMonitor, error) {
	if t.patternDrv != nil {
		return nil, fmt.Errorf("core: pattern plan already installed")
	}
	drv, err := workload.Apply(t.Eng, t, plan, workload.DriverConfig{
		Ports: t.cfg.DataPorts,
		MTU:   t.cfg.MTU,
		Seed:  t.cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	victim, _ := plan.Victim() // zero value: watch port 0
	link := t.ForwardLink(victim)
	q := link.Queue()
	mon, err := measure.NewOverloadMonitor(t.Eng, measure.OverloadProbe{
		QueueBytes: q.Bytes,
		PeakBytes:  func() int { return q.Stats().MaxBacklogB },
		Delivered:  func() uint64 { return link.Stats().TxPackets },
		Dropped:    func() uint64 { return q.Stats().Drops },
	}, measure.OverloadConfig{ThresholdBytes: q.Capacity() / 2})
	if err != nil {
		return nil, err
	}
	mon.Start()
	t.patternPlan = plan
	t.patternDrv = drv
	t.overloadMon = mon
	return mon, nil
}

// PatternPlan returns the installed pattern plan (zero when none).
func (t *Tester) PatternPlan() workload.Plan { return t.patternPlan }

// PatternDriver returns the armed workload driver, or nil.
func (t *Tester) PatternDriver() *workload.Driver { return t.patternDrv }

// OverloadMonitor returns the victim-port monitor armed by
// InstallPatterns, or nil.
func (t *Tester) OverloadMonitor() *measure.OverloadMonitor { return t.overloadMon }

// deliveredBytes sums the tested network's last-hop delivered bytes — the
// goodput counter the fault monitor samples.
func (t *Tester) deliveredBytes() uint64 {
	var n uint64
	for i := 0; i < t.cfg.DataPorts; i++ {
		n += t.ForwardLink(i).Stats().TxBytes
	}
	return n
}

// ecnMarks sums CE marks across every tested-network egress queue. The
// fault monitor samples it every period, so it reads the queues' counters
// directly (collected on the first call) instead of snapshotting switches.
func (t *Tester) ecnMarks() uint64 {
	if t.egress == nil {
		for _, s := range t.Switches() {
			for i := 0; i < s.Ports(); i++ {
				t.egress = append(t.egress, s.Port(i).Queue())
			}
		}
	}
	var n uint64
	for _, q := range t.egress {
		n += q.Stats().ECNMarks
	}
	return n
}

// DeviceLinks returns the FPGA->switch (SCHE) and switch->FPGA (INFO)
// device links, one pair per island in island order.
func (t *Tester) DeviceLinks() (sche, info []*netem.Link) {
	for _, isl := range t.islands {
		sche = append(sche, isl.sche)
		info = append(info, isl.info)
	}
	return sche, info
}

// OnComplete registers a hook invoked after each flow completion (after
// the FCT is recorded); closed-loop workloads start the next flow here.
func (t *Tester) OnComplete(fn func(flow packet.FlowID, fct sim.Duration)) {
	t.userComplete = fn
}

// StartFlow launches a flow of sizePkts MTU-sized packets from tx port to
// rx port. sizePkts == 0 runs an unbounded flow (stopped via StopFlow).
func (t *Tester) StartFlow(flow packet.FlowID, tx, rx int, sizePkts uint32) error {
	return t.startFlow(flow, tx, rx, sizePkts, nil)
}

// StartFlowCC launches a flow running a per-flow CC algorithm instead of
// the deployed default — the mixed-control coexistence case (DCTCP beside
// CUBIC through one AQM). The named algorithm must share the deployed
// module's Mode; the flow carries the algorithm's preferred ECN codepoint
// (ECT(1) for scalable controls, ECT(0) otherwise).
func (t *Tester) StartFlowCC(flow packet.FlowID, tx, rx int, sizePkts uint32, algorithm string) error {
	alg, err := cc.New(algorithm)
	if err != nil {
		return err
	}
	return t.startFlow(flow, tx, rx, sizePkts, alg)
}

// startFlow binds the flow on the pipeline owning its TX port, resets
// receiver state where its DATA will land, and starts it on the TX-side
// NIC under alg (nil: the deployed default module). The NIC's preflight
// runs before any of that, so a flow it refuses is left unbound.
func (t *Tester) startFlow(flow packet.FlowID, tx, rx int, sizePkts uint32, alg cc.Algorithm) error {
	if rx < 0 || rx >= t.cfg.DataPorts {
		return fmt.Errorf("core: rx port %d out of range [0,%d)", rx, t.cfg.DataPorts)
	}
	if tx < 0 || tx >= t.cfg.DataPorts {
		return fmt.Errorf("core: tx port %d out of range [0,%d)", tx, t.cfg.DataPorts)
	}
	isl := t.portIsland[tx]
	if err := isl.nic.CheckStart(flow, t.portLocal[tx], alg); err != nil {
		return err
	}
	// On a sharded tester the ID may still be running on another island's
	// NIC, which this island's preflight cannot see.
	if o := t.owner(flow); o != nil && o != isl {
		if _, _, active := o.nic.FlowProgress(flow); active {
			return fmt.Errorf("core: flow %d already active", flow)
		}
	}
	if err := isl.pl.BindFlow(flow, t.portLocal[tx]); err != nil {
		return err
	}
	isl.pl.ResetFlow(flow)
	if risl := t.portIsland[rx]; risl != isl {
		risl.pl.ResetFlow(flow)
	}
	t.bind(flow, rx)
	*t.flows.Slot(flow) = flowEntry{size: sizePkts, island: uint32(isl.idx + 1)}
	if alg == nil {
		return isl.nic.StartFlow(flow, t.portLocal[tx], sizePkts)
	}
	return isl.nic.StartFlowWith(flow, t.portLocal[tx], sizePkts, alg, cc.PreferredECT(alg))
}

// StopFlow terminates a flow immediately (§7.3's staggered termination).
func (t *Tester) StopFlow(flow packet.FlowID) {
	if isl := t.owner(flow); isl != nil {
		isl.nic.StopFlow(flow)
	}
}

func (t *Tester) flowDone(flow packet.FlowID, fct sim.Duration) {
	f := t.flows.Get(flow)
	t.FCTs.Add(measure.FCTRecord{
		Flow:     flow,
		SizePkts: f.size,
		Start:    t.Eng.Now().Add(-fct),
		FCT:      fct,
	})
	if t.userComplete != nil {
		t.userComplete(flow, fct)
	}
}

// Run advances the simulation to the given absolute time: the one island's
// engine directly, or every island engine in conservative rounds.
func (t *Tester) Run(until sim.Time) {
	if t.runner != nil {
		t.runner.Run(until)
		return
	}
	t.Eng.Run(until)
}

// GoodputBits returns the DATA bits the switch emitted for a flow.
func (t *Tester) GoodputBits(flow packet.FlowID) uint64 {
	return t.FlowTxBytes(flow) * 8
}

// TopologyDOT renders the wired test setup as a Graphviz digraph: the
// FPGA/switch device pair, the per-port forward paths through the tested
// network, and the reverse ACK paths — the picture Figure 1 draws, for
// this deployment's actual configuration.
func (t *Tester) TopologyDOT() string {
	var b strings.Builder
	b.WriteString("digraph marlin {\n  rankdir=LR;\n")
	b.WriteString("  fpga [shape=box,label=\"FPGA NIC\\n")
	fmt.Fprintf(&b, "%s, %d ports\"];\n", t.cfg.Algorithm.Name(), t.cfg.DataPorts)
	b.WriteString("  switch [shape=box,label=\"switch pipeline\\n")
	fmt.Fprintf(&b, "MTU %d, %v/port\"];\n", t.plan.MTU, t.plan.PortRate)
	b.WriteString("  fpga -> switch [label=\"SCHE 64B\"];\n")
	b.WriteString("  switch -> fpga [label=\"INFO 64B\"];\n")
	// Each data port hangs between the pipeline and its host attachment in
	// the tested network, whose switches carry live per-hop counters.
	for p := 0; p < t.cfg.DataPorts; p++ {
		fmt.Fprintf(&b, "  switch -> p%d [label=\"DATA p%d\"];\n", p, p)
		fmt.Fprintf(&b, "  p%d -> switch [label=\"ACK p%d\"];\n", p, p)
	}
	t.Fab.DOTBody(&b, func(h int) string { return fmt.Sprintf("p%d", h) })
	if t.cfg.ReceiverOnFPGA {
		b.WriteString("  switch -> fpga [style=dashed,label=\"truncated DATA (reserved port)\"];\n")
	}
	b.WriteString("}\n")
	return b.String()
}
