// Package controlplane is the operator-facing layer of Marlin (§3.2):
// validating a test specification, deploying it to the switch and FPGA
// models, starting traffic, and reading results back out of "hardware
// registers" — the same role the paper's Python control-plane program
// plays over gRPC and PCIe.
//
// A Spec is strings and scalars; compile translates it once into the
// core.Config the tester is built from, plus its parsed fault and pattern
// plans, and Validate, Lint and Deploy all read that one translation. The
// Spec's own checks are ranges and string syntax. The paper's defaults and
// the cross-field rules (ExtraHops without a Topology, Shards only on a
// Topology and without PFC or the FPGA-placed receiver) are core's,
// applied by core.Resolve.
package controlplane

import (
	"fmt"

	"marlin/internal/aqm"
	"marlin/internal/cc"
	"marlin/internal/core"
	"marlin/internal/fabric"
	"marlin/internal/faults"
	"marlin/internal/fpga"
	"marlin/internal/measure"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/sim"
	"marlin/internal/tofino"
	"marlin/internal/workload"
)

// Spec is an operator's test description: "selecting the CC algorithm,
// setting CC parameters, choosing the test ports, and determining the
// number of flows per port" (§3.2). Every field but PortRate, Params and
// ECNThresholdPkts is also settable by name: see the knobs table in
// knobs.go, which scenario scripts, sweep axes and marlinctl's flags all go
// through.
type Spec struct {
	// Algorithm names a registered CC module (cc.Names()).
	Algorithm string
	// MTU is the DATA frame size (default 1024).
	MTU int
	// PortRate is the per-port line rate (default 100 Gbps).
	PortRate sim.Rate
	// Ports is how many data ports the test uses (default: plan max).
	Ports int
	// FlowsPerPort is the initial concurrent flows per port.
	FlowsPerPort int
	// Receiver forces the receiver logic: "", "tcp", or "roce".
	Receiver string
	// ECNThresholdPkts N is the Go spelling of AQM "ecn:k=N" (0 = off),
	// refused beside a non-empty AQM. The `ecn` key writes AQM instead.
	ECNThresholdPkts int
	// AQM is the marking policy of every tested-network egress queue, in
	// aqm.ParseSpec syntax: the paper's step ECN "ecn:k=65", or a
	// discipline such as "red", "pie", "codel:target=5ms,interval=100ms",
	// "pi2" or "dualpi2:coupling=2". Empty (or "none") keeps drop-tail
	// without marking.
	AQM string
	// NetQueueBytes sizes each tested-network egress buffer. RoCE tests
	// set it deep (multi-MB) to stand in for PFC losslessness.
	NetQueueBytes int
	// EnableINT stamps in-band telemetry at every hop (HPCC-style CC).
	EnableINT bool
	// EnablePFC makes the tested network lossless via pause frames.
	EnablePFC bool
	// ReceiverOnFPGA moves receiver logic to the FPGA over the reserved
	// port (Figure 2's dashed path).
	ReceiverOnFPGA bool
	// ExtraHops deepens every forward path by this many additional
	// store-and-forward hops.
	ExtraHops int
	// Topology replaces the canonical single-switch tested network with a
	// multi-switch fabric, e.g. "dumbbell", "leafspine:4x2", "fattree:4",
	// "parkinglot:3" (fabric.ParseSpec syntax). Empty keeps the canonical
	// arrangement; mutually exclusive with ExtraHops.
	Topology string
	// LinkDelay is the tested network's per-link one-way delay.
	LinkDelay sim.Duration
	// DCQCNTimeScale compresses DCQCN's recovery timescale for short
	// simulated horizons (1 = paper parameters).
	DCQCNTimeScale float64
	// Faults schedules a deterministic fault plan in faults.ParseSpec
	// syntax, e.g. "linkdown leaf0->spine1 at 2ms for 500us; nicstall at
	// 4ms for 100us". Empty runs fault-free.
	Faults string
	// Pattern layers deterministic traffic patterns over the test in
	// workload.ParseSpec syntax, e.g. "incast:period=5ms,fanin=8,victim=1,
	// size=150; flood:peak=20G,victim=1". Empty runs pattern-free.
	Pattern string
	// Params fully overrides the parameter block when non-nil.
	Params *cc.Params
	// Shards > 0 executes the simulation as a conservative parallel
	// build: the Topology is partitioned along its natural fault domains
	// and up to Shards worker goroutines run the partitions in lookahead-
	// bounded rounds. Results are byte-identical for every Shards >= 1
	// and any GOMAXPROCS; 0 assembles one island (one NIC, one
	// device-cable pair) on a single engine, which agrees with them
	// statistically, not byte for byte. Shards > 0 requires Topology and
	// is incompatible with EnablePFC and ReceiverOnFPGA.
	Shards int
	// Seed drives all randomness.
	Seed uint64
}

// compiledSpec is a Spec translated for deployment: the configuration
// core.New takes and the parsed fault and pattern plans.
type compiledSpec struct {
	cfg     core.Config
	faults  faults.Plan
	pattern workload.Plan
}

// compile translates s, parsing each of its strings once. Range checks are
// the Spec's own; the cross-field rules and the defaults are core's,
// applied by core.Resolve, whose resolved port count bounds the pattern
// victims.
func (s *Spec) compile() (compiledSpec, error) {
	var c compiledSpec
	if s.Algorithm == "" {
		return c, fmt.Errorf("controlplane: no algorithm selected")
	}
	alg, err := cc.New(s.Algorithm)
	if err != nil {
		return c, err
	}
	if s.FlowsPerPort < 0 {
		return c, fmt.Errorf("controlplane: negative flows per port")
	}
	// A negative size or delay is never a request for the default: core
	// would size slices with it or schedule into the past.
	for _, f := range [...]struct {
		name string
		neg  bool
	}{
		{"Ports", s.Ports < 0},
		{"MTU", s.MTU < 0},
		{"ECNThresholdPkts", s.ECNThresholdPkts < 0},
		{"NetQueueBytes", s.NetQueueBytes < 0},
		{"ExtraHops", s.ExtraHops < 0},
		{"LinkDelay", s.LinkDelay < 0},
		{"DCQCNTimeScale", s.DCQCNTimeScale < 0},
	} {
		if f.neg {
			return c, fmt.Errorf("controlplane: negative %s", f.name)
		}
	}
	if s.Shards < 0 {
		return c, fmt.Errorf("controlplane: negative shard count %d", s.Shards)
	}
	c.cfg = core.Config{
		Algorithm:      alg,
		MTU:            s.MTU,
		PortRate:       s.PortRate,
		DataPorts:      s.Ports,
		LinkDelay:      s.LinkDelay,
		NetQueueBytes:  s.NetQueueBytes,
		EnableINT:      s.EnableINT,
		EnablePFC:      s.EnablePFC,
		ReceiverOnFPGA: s.ReceiverOnFPGA,
		ExtraHops:      s.ExtraHops,
		Shards:         s.Shards,
		Seed:           s.Seed,
	}
	switch s.Receiver {
	case "":
	case "tcp":
		c.cfg.Receiver = core.ForceTCPReceiver
	case "roce":
		c.cfg.Receiver = tofino.RoCEReceiver
	default:
		return c, fmt.Errorf("controlplane: unknown receiver mode %q", s.Receiver)
	}
	if c.cfg.AQM, err = aqm.ParseSpec(s.AQM); err != nil {
		return c, err
	}
	if s.ECNThresholdPkts > 0 {
		if s.AQM != "" {
			return c, fmt.Errorf("controlplane: ECNThresholdPkts %d and AQM %q are two marking policies (ECNThresholdPkts N is AQM \"ecn:k=N\")",
				s.ECNThresholdPkts, s.AQM)
		}
		c.cfg.AQM = aqm.Spec{Kind: aqm.KindECN, K: s.ECNThresholdPkts}
	}
	if s.Topology != "" {
		if c.cfg.Topology, err = fabric.ParseSpec(s.Topology); err != nil {
			return c, err
		}
	}
	if s.Faults != "" {
		if c.faults, err = faults.ParseSpec(s.Faults); err != nil {
			return c, err
		}
	}
	if s.Pattern != "" {
		if c.pattern, err = workload.ParseSpec(s.Pattern); err != nil {
			return c, err
		}
	}
	if s.Params != nil {
		if err := s.Params.Validate(); err != nil {
			return c, err
		}
		c.cfg.Params = *s.Params
	}
	eff, _, err := core.Resolve(c.cfg)
	if err != nil {
		return c, err
	}
	// An explicit victim must name a real data port. Deployment would
	// reject it too, but only after the tester is half-built.
	for _, v := range c.pattern.Victims() {
		if v >= eff.DataPorts {
			return c, fmt.Errorf("controlplane: pattern victim port %d outside [0,%d)", v, eff.DataPorts)
		}
	}
	c.cfg.Params, c.cfg.PortRate = eff.Params, eff.PortRate
	if s.DCQCNTimeScale > 1 {
		c.cfg.Params.ScaleDCQCNTime(s.DCQCNTimeScale)
	}
	return c, nil
}

// Validate rejects malformed specs before deployment.
func (s *Spec) Validate() error {
	_, err := s.compile()
	return err
}

// Lint reports configuration smells that deploy fine but tend to produce
// misleading tests — the judgement calls an experienced operator makes
// before burning a testbed run. A spec that does not compile has no smells
// to report: Validate says what is wrong with it.
func (s *Spec) Lint() []string {
	c, err := s.compile()
	if err != nil {
		return nil
	}
	var warns []string
	queue := s.NetQueueBytes
	if queue == 0 {
		queue = netem.DefaultQueueCapacity
	}
	if ecn, _ := c.cfg.Marking(); ecn.Enable {
		if ecn.K >= queue {
			warns = append(warns, fmt.Sprintf(
				"ECN threshold (%d pkts = %d B) is at or beyond the %d B queue: drops will precede marking",
				c.cfg.AQM.K, ecn.K, queue))
		} else if ecn.K > queue/2 {
			warns = append(warns, fmt.Sprintf(
				"ECN threshold (%d B) above half the %d B queue leaves little headroom for bursts",
				ecn.K, queue))
		}
	}
	// No packet waits longer than a full queue takes to drain, so a delay
	// threshold at or above that drain time never fires: the discipline
	// measures drop-tail. (RFC-scale defaults are milliseconds; a 256 KiB
	// queue at 100 Gbps drains in about 21 us.)
	drain := c.cfg.PortRate.Serialize(queue)
	a := c.cfg.AQM
	switch a.Kind {
	case aqm.KindPIE, aqm.KindCoDel, aqm.KindPI2, aqm.KindDualPI2:
		if a.Target >= drain {
			warns = append(warns, fmt.Sprintf(
				"%s delay target %v is at or above the %d B queue's %v drain time: no standing delay reaches it, so the test measures drop-tail",
				a.Kind, a.Target, queue, drain))
		}
	}
	if a.Kind == aqm.KindDualPI2 && a.Step >= drain {
		warns = append(warns, fmt.Sprintf(
			"dualpi2 L4S step %v is at or above the %d B queue's %v drain time: the step never marks",
			a.Step, queue, drain))
	}
	if c.cfg.Algorithm.Mode() == cc.RateMode && !s.EnablePFC && queue < 2<<20 {
		warns = append(warns, fmt.Sprintf(
			"rate-based %s on a lossy %d B buffer without PFC: expect go-back-N retransmission storms",
			s.Algorithm, queue))
	}
	if s.Algorithm == "hpcc" && !s.EnableINT {
		warns = append(warns, "hpcc without EnableINT receives no telemetry and will not react")
	}
	if s.Algorithm == "dcqcn" && s.DCQCNTimeScale <= 1 {
		warns = append(warns,
			"dcqcn with paper-scale timers recovers over hundreds of ms; set DCQCNTimeScale for short horizons")
	}
	hops := c.cfg.Topology.Diameter() + s.ExtraHops
	if s.EnableINT && hops > packet.MaxINTHops {
		warns = append(warns, fmt.Sprintf(
			"%d-hop paths exceed the %d-entry INT stack: later hops go unstamped",
			hops, packet.MaxINTHops))
	}
	return warns
}

// Deploy compiles the spec into device configurations and builds a wired
// tester — the moment the paper's control plane writes the switch tables
// and FPGA firmware/BRAM.
func (s *Spec) Deploy(eng *sim.Engine) (*core.Tester, error) {
	c, err := s.compile()
	if err != nil {
		return nil, err
	}
	tester, err := core.New(eng, c.cfg)
	if err != nil {
		return nil, err
	}
	if s.Faults != "" {
		if _, err := tester.InstallFaults(c.faults); err != nil {
			return nil, err
		}
	}
	if s.Pattern != "" {
		if _, err := tester.InstallPatterns(c.pattern); err != nil {
			return nil, err
		}
	}
	return tester, nil
}

// Snapshot is a readout of every control-plane-visible register, as
// gathered by reading the switch and FPGA models.
type Snapshot struct {
	At       sim.Time
	Switch   tofino.Counters
	Ports    []tofino.PortCounters
	NIC      fpga.Stats
	FCTCount int
	// Network is per-switch, per-port telemetry of the tested network:
	// one entry for the canonical single switch, one per fabric switch
	// under a multi-switch Topology.
	Network []netem.Stats
	// Faults is per-fault recovery telemetry when a fault plan is
	// installed (nil otherwise).
	Faults []faults.Recovery
	// Overload is the victim-port burst telemetry when a pattern plan is
	// installed (nil otherwise).
	Overload *measure.OverloadReport
}

// ReadRegisters collects a Snapshot from a running tester.
func ReadRegisters(t *core.Tester) Snapshot {
	snap := Snapshot{
		At:       t.Eng.Now(),
		Switch:   t.PipelineCounters(),
		NIC:      t.NICStats(),
		FCTCount: t.FCTs.Len(),
		Network:  t.NetworkStats(),
		Faults:   t.FaultRecoveries(),
	}
	for i := 0; i < t.Plan().DataPorts; i++ {
		snap.Ports = append(snap.Ports, t.PipelinePortCounters(i))
	}
	if mon := t.OverloadMonitor(); mon != nil {
		r := mon.Report()
		snap.Overload = &r
	}
	return snap
}

// LossReport summarises where packets were lost — the distinction between
// real network drops and tester-internal false losses matters because
// §4.2 requires the latter to be zero in correct operation.
type LossReport struct {
	// NetworkDrops are tested-network queue drops (congestion).
	NetworkDrops uint64
	// FalseLosses are switch register-queue overflows (tester bugs or
	// deliberate Challenge 1 ablations).
	FalseLosses uint64
	// RXDrops are FPGA RX-FIFO overflows.
	RXDrops uint64
	// Misroutes are packets a switch routing function sent to a
	// nonexistent port — a routing bug, counted instead of crashing.
	Misroutes uint64
	// InjectedDrops are hook-injected losses (netem.Script entries and
	// lossburst faults) — deliberate, not congestion.
	InjectedDrops uint64
	// DownDrops are carrier losses on administratively-down links
	// (linkdown faults).
	DownDrops uint64
}

// ReadLosses collects a LossReport.
func ReadLosses(t *core.Tester) LossReport {
	var r LossReport
	for _, sw := range t.Switches() {
		st := sw.Stats()
		for _, ps := range st.Ports {
			r.NetworkDrops += ps.Drops
			r.InjectedDrops += ps.InjectedDrops
			r.DownDrops += ps.DownDrops
		}
		r.Misroutes += st.Misroutes
	}
	for i := 0; i < t.Plan().DataPorts; i++ {
		ls := t.TxLink(i).Stats()
		r.InjectedDrops += ls.InjectedDrops
		r.DownDrops += ls.DownDrops
		r.NetworkDrops += t.TxLink(i).Queue().Stats().Drops
	}
	r.FalseLosses = t.PipelineCounters().ScheDrops
	r.RXDrops = t.NICStats().InfoDrops
	return r
}
