package core

import (
	"testing"

	"marlin/internal/cc"
	"marlin/internal/fabric"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/race"
	"marlin/internal/sim"
)

// lineRateTester builds a 4-port dctcp tester on the given topology and
// starts one unbounded flow per entry of rx, port p sending to rx[p].
// Windows are pinned above the path's bandwidth-delay product and the queue
// marks: every flow runs at line rate, and the packets and events in flight,
// hence the pools, stop growing within a warm-up.
func lineRateTester(t *testing.T, topo string, sharedQueue bool, rx []int) *Tester {
	t.Helper()
	spec, err := fabric.ParseSpec(topo)
	if err != nil {
		t.Fatal(err)
	}
	params := cc.DefaultParams(100*sim.Gbps, 1024)
	params.InitCwnd, params.MaxCwnd = 256, 256
	tr := newTester(t, Config{
		Algorithm: mustAlg(t, "dctcp"), Params: params, DataPorts: 4, Topology: spec, Seed: 1,
		ECN: netem.StepMarking(65, 1024), SharedQueue: sharedQueue,
	})
	for p, to := range rx {
		if err := tr.StartFlow(packet.FlowID(p), p, to, 0); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// Once warm, the whole per-packet path — SCHE, DATA generation, every hop of
// the tested network reading the flow's destination from the routing column,
// ACK, INFO, the CC module and its Slow Path — allocates nothing, on the
// canonical switch, on a multi-hop fabric and with the §4.2 shared-queue
// ablation's TEMP slots. The NIC's log ring is the one thing still growing
// (to its 1 Mi-record bound, a piece at a time); a piece that lands in the
// measured slices is below AllocsPerRun's integer average.
func TestPacketPathAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, c := range []struct {
		topo   string
		shared bool
	}{{"", false}, {"leafspine:2x2", false}, {"", true}} {
		topo := c.topo
		if c.shared {
			topo = "shared queue"
		}
		tr := lineRateTester(t, c.topo, c.shared, []int{2, 3, 0, 1})
		tr.Run(sim.Time(sim.Millisecond)) // fills the RTT ring and the event and packet pools
		before := tr.PipelineCounters().DataTx
		if a := testing.AllocsPerRun(100, func() { tr.Run(tr.Eng.Now().Add(2 * sim.Microsecond)) }); a != 0 {
			t.Errorf("topology %q: %v allocs per 2us slice at line rate, want 0", topo, a)
		}
		if pkts := tr.PipelineCounters().DataTx - before; pkts < 5000 {
			t.Fatalf("topology %q: only %d DATA packets in the measured slices", topo, pkts)
		}
		for _, st := range tr.NetworkStats() {
			if st.Misroutes != 0 || st.Unrouted != 0 {
				t.Errorf("topology %q: switch %s misrouted %d, left %d unrouted", topo, st.Name, st.Misroutes, st.Unrouted)
			}
		}
	}
}

// An external (flood) flow's ID lies above every NIC flow, and above the
// BRAM bound: binding it costs one page of the routing column and nothing
// in the flow table (it has no NIC state), flows in between stay unbound,
// and a packet of a flow nobody bound — in an allocated page, an unallocated
// one or past the directory — is dropped at the switch and counted, not a
// panic.
func TestExternalFlowGrowsDenseTable(t *testing.T) {
	tr := newTester(t, Config{Algorithm: mustAlg(t, "dctcp"), DataPorts: 2, Seed: 1})
	if err := tr.StartFlow(3, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	const flood = packet.FlowID(80_000) // MaxFlowsByBRAM() is 70,312
	if err := tr.BindExternalFlow(flood, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.BindExternalFlow(flood+1, 2); err == nil {
		t.Error("BindExternalFlow accepted an rx port the tester does not have")
	}
	if r, f := tr.route.Pages(), tr.flows.Pages(); r != 2 || f != 1 {
		t.Errorf("after starting flow 3 and binding flow %d: %d route pages and %d flow pages, want 2 and 1", flood, r, f)
	}
	for _, c := range []struct {
		flow packet.FlowID
		want int
	}{{3, 1}, {flood, 1}, {4, -1}, {flood - 1, -1}, {flood + 1, -1}, {1 << 31, -1}} {
		if got := tr.dst(&packet.Packet{Flow: c.flow}); got != c.want {
			t.Errorf("dst(flow %d) = %d, want %d", c.flow, got, c.want)
		}
	}
	if tr.owner(flood) != nil || tr.owner(flood+1) != nil || tr.owner(3) == nil {
		t.Error("owner: only NIC-started flows have a TX-side island")
	}
	tr.StopFlow(flood) // no NIC state: a no-op
	if tr.FlowTxBytes(flood) != 0 || tr.FlowTrace(flood) != nil {
		t.Error("an external flow reads NIC or pipeline state")
	}

	tr.InjectData(flood, 0, 0, 1024, packet.ECT0)
	tr.InjectData(flood-1, 0, 0, 1024, packet.ECT0)
	tr.InjectData(1<<31, 0, 0, 1024, packet.ECT0)
	delivered := tr.ForwardLink(1).Stats().TxPackets
	tr.Run(sim.Time(20 * sim.Microsecond))
	if got := tr.Net.Unrouted(); got != 2 {
		t.Errorf("switch dropped %d unrouted packets, want 2", got)
	}
	if tr.ForwardLink(1).Stats().TxPackets == delivered {
		t.Error("the bound flood frame never reached receiver port 1")
	}
}

// An event is scheduled only where simulated time is waited for: at line
// rate a DATA packet costs a fixed number of engine events — a delivery per
// link hop, plus the timers of the cables that run near full load and the
// NIC's ticks — and a fusion lost anywhere on the path shows up here as a
// higher count. The leaf-spine flows cross the spine, one per direction so
// that ECMP cannot collide them: two more link hops, two more events. The
// bounds are the measured 7.76 and 9.51 (13.01 and 17.01 with a wake-up per
// frame on every link and an event per TEMP slot); one lost fusion adds
// between 0.9 and 1.0.
func TestEventsPerDataPacket(t *testing.T) {
	for _, c := range []struct {
		topo string
		rx   []int // rx[p] is the receiver of the flow port p sends
		most float64
	}{{"", []int{2, 3, 0, 1}, 7.8}, {"leafspine:2x2", []int{1, 0}, 9.6}} {
		tr := lineRateTester(t, c.topo, false, c.rx)
		tr.Run(sim.Time(200 * sim.Microsecond))
		ev, pkts := tr.EventsExecuted(), tr.PipelineCounters().DataTx
		tr.Run(sim.Time(700 * sim.Microsecond))
		ev, pkts = tr.EventsExecuted()-ev, tr.PipelineCounters().DataTx-pkts
		if lineRate := uint64(float64(len(c.rx)) * 11.9e6 * 500e-6); pkts < lineRate {
			t.Fatalf("topology %q: %d DATA packets in 500us, below line rate (%d)", c.topo, pkts, lineRate)
		}
		per := float64(ev) / float64(pkts)
		t.Logf("topology %q: %.2f events per DATA packet", c.topo, per)
		if per > c.most {
			t.Errorf("topology %q: %.2f events per DATA packet, want <= %.2f", c.topo, per, c.most)
		}
	}
}
