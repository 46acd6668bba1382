package fuzzer

import (
	"encoding/json"
	"fmt"
	"sort"

	"marlin/internal/controlplane"
	"marlin/internal/core"
	"marlin/internal/measure"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/scenario"
	"marlin/internal/sim"
)

// queueBalance is one egress queue's conservation ledger, read while the
// tester is still live (the snapshot API exposes depth but not the
// enqueue/dequeue counters this check needs).
type queueBalance struct {
	Name string
	Enq  uint64
	Deq  uint64
	Len  int
	Drop uint64
}

// runResult is everything the oracles inspect from one execution.
type runResult struct {
	Snap    controlplane.Snapshot
	Losses  controlplane.LossReport
	FCTs    []measure.FCTRecord
	Goodput map[packet.FlowID]uint64 // delivered bits
	Queues  []queueBalance
	Sched   error // the NICs' scheduler self-check at the horizon
	// Outstanding and OutstandingINT are the packets and telemetry records
	// the tester's pools have minted and not got back at the horizon.
	Outstanding, OutstandingINT int
}

// execute deploys the config, runs it to its horizon and returns the
// oracle-visible result; the expectations are not evaluated. It must stay
// a pure function of cfg: the determinism oracle replays it verbatim and
// compares digests.
func execute(cfg Config) (*runResult, error) {
	var refused error
	tr, err := cfg.Start(&refused)
	if err != nil {
		return nil, err
	}
	tr.Run(sim.Time(cfg.Horizon()))
	if refused != nil {
		return nil, refused
	}
	res := &runResult{
		Snap:    controlplane.ReadRegisters(tr),
		Losses:  controlplane.ReadLosses(tr),
		FCTs:    append([]measure.FCTRecord(nil), tr.FCTs.Records()...),
		Goodput: map[packet.FlowID]uint64{},
	}
	for _, f := range cfg.flows() {
		res.Goodput[f.Flow] = tr.GoodputBits(f.Flow)
	}
	res.Queues = collectQueues(tr)
	res.Sched = tr.CheckScheduler()
	res.Outstanding, res.OutstandingINT = tr.Outstanding()
	return res, nil
}

// dilated is the config with time stretched k-fold: every rate divided by
// k, every delay and timeline instant multiplied by it. The packet-level
// trajectory must be a pure homothety of the base run, so dimensionless
// outputs are preserved exactly.
func (c Config) dilated(k int) Config {
	c.Spec.PortRate = 100 * sim.Gbps / sim.Rate(k)
	c.Spec.LinkDelay = 2 * sim.Microsecond * sim.Duration(k)
	c.Actions = append([]scenario.Action(nil), c.Actions...)
	for i := range c.Actions {
		c.Actions[i].At *= sim.Duration(k)
		c.Actions[i].Flap *= sim.Duration(k)
	}
	c.finish(c.Horizon() * sim.Duration(k))
	return c
}

// relabeled is the config with every flow ID f renamed to to[f].
func (c Config) relabeled(to map[packet.FlowID]packet.FlowID) Config {
	c.Actions = append([]scenario.Action(nil), c.Actions...)
	for i := range c.Actions {
		c.Actions[i].Flow = to[c.Actions[i].Flow]
	}
	return c
}

// collectQueues walks every egress queue the tester owns — switch ports,
// TX links (the host uplinks), and the FPGA-facing SCHE/INFO links — and
// reads its conservation ledger.
func collectQueues(tr *core.Tester) []queueBalance {
	var out []queueBalance
	add := func(name string, q *netem.Queue) {
		st := q.Stats()
		out = append(out, queueBalance{Name: name, Enq: st.EnqPackets, Deq: st.DeqPackets, Len: q.Len(), Drop: st.Drops})
	}
	for _, sw := range tr.Switches() {
		for i := 0; i < sw.Ports(); i++ {
			add(fmt.Sprintf("%s.port%d", sw.Name(), i), sw.Port(i).Queue())
		}
	}
	for i := 0; i < tr.Plan().DataPorts; i++ {
		add(fmt.Sprintf("tx%d", i), tr.TxLink(i).Queue())
	}
	sche, info := tr.DeviceLinks()
	for i := range sche {
		add(fmt.Sprintf("sche%d", i), sche[i].Queue())
		add(fmt.Sprintf("info%d", i), info[i].Queue())
	}
	return out
}

// digest serializes the outputs two runs must agree on byte-for-byte. It
// deliberately contains no wall-clock or pointer-derived values.
func (r *runResult) digest() string {
	flows := make([]packet.FlowID, 0, len(r.Goodput))
	for id := range r.Goodput {
		flows = append(flows, id)
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
	type fg struct {
		Flow packet.FlowID
		Bits uint64
	}
	gp := make([]fg, 0, len(flows))
	for _, id := range flows {
		gp = append(gp, fg{id, r.Goodput[id]})
	}
	b, err := json.Marshal(struct {
		Snap    controlplane.Snapshot
		Losses  controlplane.LossReport
		FCTs    []measure.FCTRecord
		Goodput []fg
	}{r.Snap, r.Losses, r.FCTs, gp})
	if err != nil {
		panic(err)
	}
	return string(b)
}
