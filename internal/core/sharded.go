// Islands: the slices of tester hardware New assembles a tester from, and
// the shard runner that drives more than one of them.
//
// Each island of the plan that owns data ports gets a switch pipeline, an
// FPGA NIC and their SCHE/INFO cable pair, sized to those ports, on the
// island's engine; the register accessors below read the tester as the sum
// (or the owning member) of its islands. Shards == 0 plans one island on
// the caller's engine. Shards > 0 takes fabric.PartitionSpec's plan, one
// engine per island carrying its share of the fabric too, and a
// shard.Runner drives them in conservative rounds bounded by the tested
// network's link delay: trunks crossing the cut, the reverse ACK
// paths (routed per flow) and flow completions all go through the runner's
// deterministic barrier merge. Every partition draws packets from a pool of
// its own; the runner moves a packet into its destination's pool as it
// crosses, and free packets between pools at the barrier.
//
// Comparability. Shards=1 and Shards=N run the same K-island plan and are
// byte-identical at any GOMAXPROCS. Shards=0 on the same Topology is a
// different model, not a different schedule: one cable pair and one NIC's
// timers and scheduler serve every port where K islands have K of each, so
// SCHE/INFO pacing, hence every interleaving and which packet meets which
// marking draw, differs. Those two agree statistically, not byte for byte
// (DESIGN.md "What is and isn't comparable").
package core

import (
	"marlin/internal/fpga"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/shard"
	"marlin/internal/sim"
	"marlin/internal/tofino"
)

// island is one partition's slice of the tester hardware: a pipeline and
// NIC sized to the data ports whose hosts live in the partition, plus their
// private device interconnect, all on the partition's engine.
type island struct {
	part int
	idx  int // position in Tester.islands
	eng  *sim.Engine
	pool *packet.Pool // the partition's, shared by pl and nic
	pl   *tofino.Pipeline
	nic  *fpga.NIC
	sche *netem.Link
	info *netem.Link
	// links holds the island's cables in build order: SCHE and INFO, the
	// reserved-port pair when Module A is on the FPGA, then one reverse
	// ACK link a data port. It is sized when the island is built.
	links []netem.Link
}

// newIsland builds the devices serving partition part's nports data ports
// on eng. cfg has been resolved and plan shrunk by Resolve.
func newIsland(eng *sim.Engine, part, nports int, cfg Config, plan tofino.Plan, pool *packet.Pool) (*island, error) {
	// SCHE is paced at the plan's per-port DATA rate unless overridden;
	// INFO never drains faster than SCHE is sent.
	txPPS := cfg.TXTimerPPS
	if txPPS == 0 {
		txPPS = plan.DataPPSPerPort
	}
	rxPPS := plan.DataPPSPerPort
	if rxPPS > txPPS {
		rxPPS = txPPS
	}
	plan.DataPorts = nports
	plan.Throughput = sim.Rate(int64(cfg.PortRate) * int64(nports))
	pl, err := tofino.NewPipeline(eng, tofino.Config{
		Plan:           plan,
		SharedQueue:    cfg.SharedQueue,
		Receiver:       cfg.Receiver,
		ReceiverOnFPGA: cfg.ReceiverOnFPGA,
		CNPInterval:    cfg.Params.CNPInterval,
		Pool:           pool,
	})
	if err != nil {
		return nil, err
	}
	nic, err := fpga.NewNIC(eng, fpga.Config{
		Ports:        nports,
		MaxFlows:     cfg.MaxFlows,
		Algorithm:    cfg.Algorithm,
		Params:       cfg.Params,
		TXTimerPPS:   txPPS,
		RXTimerPPS:   rxPPS,
		SingleRXFIFO: cfg.SingleRXFIFO,
		Scheduler:    cfg.Scheduler,
		GoBackN:      cfg.Receiver == tofino.RoCEReceiver,
		Pool:         pool,
	})
	if err != nil {
		return nil, err
	}
	// Device interconnect: one 100 Gbps cable carrying SCHE one way and
	// INFO the other (§3.1).
	cables := 2 + nports
	if cfg.ReceiverOnFPGA {
		cables += 2
	}
	isl := &island{part: part, eng: eng, pool: pool, pl: pl, nic: nic, links: make([]netem.Link, 0, cables)}
	isl.sche = isl.deviceLink(cfg, pl.ScheIn())
	nic.ConnectSche(isl.sche)
	isl.info = isl.deviceLink(cfg, nic.InfoIn())
	pl.ConnectInfo(isl.info)
	return isl, nil
}

// link places the island's next cable, delivering to dst.
func (isl *island) link(cfg netem.LinkConfig, dst netem.Node) *netem.Link {
	isl.links = isl.links[:len(isl.links)+1]
	l := &isl.links[len(isl.links)-1]
	l.Init(isl.eng, cfg, dst)
	return l
}

// deviceLink places one of the 100 Gbps cables between the FPGA and the
// switch (§3.1).
func (isl *island) deviceLink(cfg Config, dst netem.Node) *netem.Link {
	return isl.link(netem.LinkConfig{
		Rate: cfg.PortRate, Delay: 200 * sim.Nanosecond, QueueBytes: 1 << 20,
	}, dst)
}

// owner returns the island holding a flow's TX-side state, or nil for a
// flow never started.
func (t *Tester) owner(flow packet.FlowID) *island {
	if f := t.flows.Get(flow); f != nil && f.island > 0 {
		return t.islands[f.island-1]
	}
	return nil
}

// ackRouter fans a receiver island's ACK/NACK/CNP traffic to the pipeline
// owning each flow's TX port. A receiver response names no island, so the
// route is by flow ID; unknown flows (external flood traffic) deliver to
// the home island, matching the one-island pipeline where they die at the
// inactive flow. Every delivery — local or remote — goes through a runner
// portal so ordering stays a pure function of (time, partition, sequence).
type ackRouter struct {
	t    *Tester
	home *island
	vias []netem.Remote // by partition
}

func (a *ackRouter) Carry(p *packet.Packet, at sim.Time) {
	isl := a.t.owner(p.Flow)
	if isl == nil {
		isl = a.home
	}
	a.vias[isl.part].Carry(p, at)
}

// ackRouters returns, by partition, the router an island's reverse ACK
// links drain into: it serializes the island's responses over the link,
// then delivers each one to the flow's TX-side pipeline through the runner.
// The reverse delay is at least the lookahead (Diameter >= 1 hop), so every
// arrival lands beyond the round horizon. It returns nil without a runner.
func (t *Tester) ackRouters(parts int) []*ackRouter {
	if t.runner == nil {
		return nil
	}
	routers := make([]*ackRouter, parts)
	for _, isl := range t.islands {
		r := &ackRouter{t: t, home: isl, vias: make([]netem.Remote, parts)}
		for _, disl := range t.islands {
			r.vias[disl.part] = t.runner.Portal(isl.eng, disl.eng, disl.pl.AckIn())
		}
		routers[isl.part] = r
	}
	return routers
}

// completion returns partition part's flow-completion hook. Without a
// runner it records the completion at once. With one, completions fire on
// island goroutines mid-round, so it defers them to the control engine,
// where FCT recording and user callbacks replay single-threaded in (time,
// partition, sequence) order.
func (t *Tester) completion(part int) func(packet.FlowID, sim.Duration) {
	if t.runner == nil {
		return t.flowDone
	}
	return func(flow packet.FlowID, fct sim.Duration) {
		t.runner.DeferPart(part, func() { t.flowDone(flow, fct) })
	}
}

// ShardStats returns the runner's round/carry telemetry (zero without one).
func (t *Tester) ShardStats() shard.Stats {
	if t.runner == nil {
		return shard.Stats{}
	}
	return t.runner.Stats()
}

// Outstanding returns how many packets and telemetry records the tester's
// pools, the runner's reserve among them, have minted and do not hold
// free (packet.Outstanding). Once the traffic has finished and every
// packet has landed it reads (0, 0); anything else is a leak.
func (t *Tester) Outstanding() (packets, records int) {
	return packet.Outstanding(append([]*packet.Pool{&t.reserve}, t.pools...)...)
}

// EventsExecuted sums fired events across every engine the tester drives.
func (t *Tester) EventsExecuted() uint64 {
	n := t.Eng.Executed()
	for _, e := range t.partEngs {
		n += e.Executed()
	}
	return n
}

// PipelineCounters reads the switch registers, summed field-wise over the
// islands' pipelines.
func (t *Tester) PipelineCounters() tofino.Counters {
	var c tofino.Counters
	for _, isl := range t.islands {
		c = c.Plus(isl.pl.Counters())
	}
	return c
}

// PipelinePortCounters reads global data port i's registers, wherever its
// pipeline lives.
func (t *Tester) PipelinePortCounters(i int) tofino.PortCounters {
	return t.portIsland[i].pl.PortCounters(t.portLocal[i])
}

// NICStats reads the FPGA registers, summed over the islands' NICs.
func (t *Tester) NICStats() fpga.Stats {
	var s fpga.Stats
	for _, isl := range t.islands {
		s = s.Plus(isl.nic.Stats())
	}
	return s
}

// CheckScheduler runs every NIC's scheduler self-check (fpga.NIC's
// CheckScheduler) and returns the first breach, or nil.
func (t *Tester) CheckScheduler() error {
	for _, isl := range t.islands {
		if err := isl.nic.CheckScheduler(); err != nil {
			return err
		}
	}
	return nil
}

// FlowTxBytes reads a flow's cumulative generated DATA bytes from the
// pipeline owning its TX port.
func (t *Tester) FlowTxBytes(flow packet.FlowID) uint64 {
	if isl := t.owner(flow); isl != nil {
		return isl.pl.FlowTxBytes(flow)
	}
	return 0
}

// TraceFlow has the fine-grained logger retain a flow's records (§5.1);
// every other flow's are only counted. It may precede StartFlow, which logs
// the flow's first record, so before the owning island is known the flow is
// traced on every island's NIC. An ID past MaxFlows is refused with the
// NIC's error and allocates nothing (every island shares the bound, so the
// first refuses it).
func (t *Tester) TraceFlow(flow packet.FlowID) error {
	for _, isl := range t.islands {
		if err := isl.nic.TraceFlow(flow); err != nil {
			return err
		}
	}
	return nil
}

// FlowTrace returns a flow's fine-grained parameter trace from the NIC
// owning it: nil when logging is off, the flow is unknown, or it was never
// traced (TraceFlow).
func (t *Tester) FlowTrace(flow packet.FlowID) []fpga.TracePoint {
	if isl := t.owner(flow); isl != nil && isl.nic.Logger() != nil {
		return isl.nic.Logger().FlowTrace(flow)
	}
	return nil
}

// RTTSamples aggregates the FPGA's RTT probes: samples concatenate in
// island order, counts sum, and the EWMA is the count-weighted mean of the
// per-island EWMAs — one island's reading exactly, when there is one.
func (t *Tester) RTTSamples() (samplesUs []float64, count uint64, ewmaUs float64) {
	samplesUs, count, ewmaUs = t.islands[0].nic.RTTSamples()
	if len(t.islands) == 1 {
		return samplesUs, count, ewmaUs
	}
	weighted := ewmaUs * float64(count)
	for _, isl := range t.islands[1:] {
		s, c, e := isl.nic.RTTSamples()
		samplesUs = append(samplesUs, s...)
		count += c
		weighted += e * float64(c)
	}
	if count > 0 {
		ewmaUs = weighted / float64(count)
	}
	return samplesUs, count, ewmaUs
}
