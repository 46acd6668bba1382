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
	Goodput map[int]uint64 // flow ID -> delivered bits
	Queues  []queueBalance
}

// overrides tweak one execution relative to its Config for the twin runs
// the differential oracles need.
type overrides struct {
	shards    int   // replaces cfg.Shards when >= 0
	haveShard bool  // shards field is meaningful
	scaleK    int   // time-dilation factor (0/1 = none)
	permute   []int // flow-ID relabeling: new ID of cfg.Flows[i]
}

// execute deploys the config and runs it to its horizon, returning the
// oracle-visible result. It must stay a pure function of (cfg, ov): the
// determinism oracle replays it verbatim and compares digests.
func execute(cfg Config, ov overrides) (*runResult, error) {
	spec := cfg.Spec()
	if ov.haveShard {
		spec.Shards = ov.shards
	}
	k := sim.Duration(1)
	if ov.scaleK > 1 {
		k = sim.Duration(ov.scaleK)
		// Dilate time: halve every rate, stretch every delay. The
		// packet-level trajectory must be a pure homothety of the base
		// run, so dimensionless outputs are preserved exactly.
		spec.PortRate = 100 * sim.Gbps / sim.Rate(ov.scaleK)
		spec.LinkDelay = 2 * sim.Microsecond * k
	}
	flowID := func(i int) int {
		if ov.permute != nil {
			return ov.permute[i]
		}
		return cfg.Flows[i].ID
	}

	eng := sim.NewEngine()
	tr, err := spec.Deploy(eng)
	if err != nil {
		return nil, err
	}
	for i, f := range cfg.Flows {
		f, id := f, flowID(i)
		eng.ScheduleAt(sim.Time(f.At*k), func() {
			if err := tr.StartFlow(packet.FlowID(id), f.Tx, f.Rx, f.Size); err != nil {
				panic(fmt.Sprintf("fuzzer: start flow %d: %v", id, err))
			}
		})
	}
	idOf := map[int]int{}
	for i, f := range cfg.Flows {
		idOf[f.ID] = flowID(i)
	}
	for _, d := range cfg.Drops {
		d := d
		id := idOf[d.Flow]
		eng.ScheduleAt(sim.Time(d.At*k), func() {
			tr.ForwardLink(d.Rx).AddHook(netem.NewScript().DropRange(packet.FlowID(id), d.From, d.To).Hook)
		})
	}
	tr.Run(sim.Time(cfg.Horizon * k))

	res := &runResult{
		Snap:    controlplane.ReadRegisters(tr),
		Losses:  controlplane.ReadLosses(tr),
		FCTs:    append([]measure.FCTRecord(nil), tr.FCTs.Records()...),
		Goodput: map[int]uint64{},
	}
	for i := range cfg.Flows {
		id := flowID(i)
		res.Goodput[id] = tr.GoodputBits(packet.FlowID(id))
	}
	res.Queues = collectQueues(tr)
	return res, nil
}

// collectQueues walks every egress queue the tester owns — switch ports,
// TX links, fabric host uplinks, and the FPGA-facing SCHE/INFO links —
// and reads its conservation ledger.
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
		if tr.Fab != nil {
			add(fmt.Sprintf("uplink%d", i), tr.Fab.HostUplink(i).Queue())
		}
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
	flows := make([]int, 0, len(r.Goodput))
	for id := range r.Goodput {
		flows = append(flows, id)
	}
	sort.Ints(flows)
	type fg struct {
		Flow int
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
