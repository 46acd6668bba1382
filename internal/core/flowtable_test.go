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

// Once warm, the whole per-packet path — SCHE, DATA generation, every hop of
// the tested network reading the flow's destination from the dense table,
// ACK, INFO, the CC module and its Slow Path — allocates nothing, on the
// canonical switch and on a multi-hop fabric. The NIC's log ring is the one
// thing still growing (to its 1 Mi-record bound, by doubling); a doubling
// that lands in the measured slices is below AllocsPerRun's integer average.
func TestPacketPathAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, topo := range []string{"", "leafspine:2x2"} {
		spec, err := fabric.ParseSpec(topo)
		if err != nil {
			t.Fatal(err)
		}
		// Windows pinned above the path's bandwidth-delay product and a
		// marked queue: the packets and events in flight, hence the pools,
		// stop growing within the warm-up.
		params := cc.DefaultParams(100*sim.Gbps, 1024)
		params.InitCwnd, params.MaxCwnd = 256, 256
		tr := newTester(t, Config{
			Algorithm: mustAlg(t, "dctcp"), Params: params, DataPorts: 4, Topology: spec, Seed: 1,
			ECN: netem.StepMarking(65, 1024),
		})
		for p := 0; p < 4; p++ {
			if err := tr.StartFlow(packet.FlowID(p), p, (p+2)%4, 0); err != nil {
				t.Fatal(err)
			}
		}
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

// An external (flood) flow's ID lies above every NIC flow: binding it grows
// the dense table, rows in between stay unbound, and a packet of a flow
// nobody bound — inside the table or beyond it — is dropped at the switch
// and counted, not a panic.
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
	if len(tr.flows) != int(flood)+1 {
		t.Errorf("table holds %d rows after binding flow %d", len(tr.flows), flood)
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
