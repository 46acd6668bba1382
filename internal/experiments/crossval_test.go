package experiments

import (
	"testing"

	"marlin/internal/controlplane"
	"marlin/internal/measure"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/refcc"
	"marlin/internal/sim"
)

// TestRenoTrajectoryMatchesReference extends Figure 5's methodology to a
// second algorithm: Marlin's fixed-point Reno module against the
// float-arithmetic reference stack (which degenerates to NewReno when no
// packet is ever CE-marked), under an identical loss script.
func TestRenoTrajectoryMatchesReference(t *testing.T) {
	horizon := 1200 * sim.Microsecond
	script := func() *netem.Script {
		return netem.NewScript().DropOnce(0, 500).DropOnce(0, 4000)
	}

	// Marlin run.
	eng := sim.NewEngine()
	tr, err := (&controlplane.Spec{Algorithm: "reno", Ports: 2, Seed: 77}).Deploy(eng)
	if err != nil {
		t.Fatal(err)
	}
	tr.ForwardLink(1).AddHook(script().Hook)
	if err := tr.TraceFlow(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.StartFlow(0, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	tr.Run(sim.Time(horizon))
	var mCwnd measure.StepTrace
	for _, p := range tr.FlowTrace(0) {
		mCwnd = append(mCwnd, measure.Point{At: p.At, V: float64(p.A)})
	}
	if len(mCwnd) == 0 {
		t.Fatal("no Marlin trace")
	}

	// Reference run over an equivalent path.
	eng2 := sim.NewEngine()
	var sender *refcc.DCTCPSender
	reverse := netem.NewLink(eng2, netem.LinkConfig{
		Rate: 100 * sim.Gbps, Delay: sim.Micros(4), QueueBytes: 1 << 20,
	}, netem.NodeFunc(func(p *packet.Packet) { sender.Receive(p) }))
	recv := refcc.NewReceiver(eng2, reverse)
	hop2 := netem.NewLink(eng2, netem.LinkConfig{
		Rate: 100 * sim.Gbps, Delay: sim.Micros(2), QueueBytes: 1 << 20,
	}, recv)
	hop2.AddHook(script().Hook)
	hop1 := netem.NewLink(eng2, netem.LinkConfig{
		Rate: 100 * sim.Gbps, Delay: sim.Micros(2), QueueBytes: 1 << 20,
	}, hop2)
	sender = refcc.NewDCTCPSender(eng2, refcc.DCTCPConfig{
		Flow: 0, MTU: 1024, LineRate: 100 * sim.Gbps, InitCwnd: 1, Ssthresh: 64,
	}, hop1)
	sender.Start()
	eng2.Run(sim.Time(horizon))
	rCwnd := measure.StepTrace(sender.CwndTrace)

	grid := horizon / 300
	shift, cmp := measure.CompareStepTracesAligned(
		mCwnd, rCwnd, sim.Time(grid), sim.Time(horizon), grid, sim.Micros(60))
	if cmp.NormRMSE() > 0.25 {
		t.Errorf("reno NormRMSE = %v (shift %v), want <= 0.25", cmp.NormRMSE(), shift)
	}
	mPeak := measure.Series(mCwnd).Max()
	rPeak := measure.Series(rCwnd).Max()
	if mPeak < rPeak*0.9 || mPeak > rPeak*1.1 {
		t.Errorf("reno peaks diverge: marlin %v vs ref %v", mPeak, rPeak)
	}
}

// TestHarnessReadsWorkOnPartitionedTester runs the measurement body the
// harnesses share — per-flow FlowTxBytes deltas over the second half and
// NICStats().RtxTx (the algorithm table), Figure 5's FlowTrace(0) — against
// a Shards: 1 leaf-spine tester. Those reads used to go through the
// Tester.Pipeline / Tester.NIC fields, which a partitioned build left nil.
func TestHarnessReadsWorkOnPartitionedTester(t *testing.T) {
	const flows, horizon = 3, 2 * sim.Millisecond
	eng := sim.NewEngine()
	tr, err := (&controlplane.Spec{
		Algorithm: "dctcp", Ports: flows + 1, AQM: paperECN,
		Topology: "leafspine:2x2", Shards: 1, Seed: 1,
	}).Deploy(eng)
	if err != nil {
		t.Fatal(err)
	}
	tr.ForwardLink(flows).AddHook(netem.NewScript().DropOnce(0, 50).Hook)
	if err := tr.TraceFlow(0); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < flows; f++ {
		if err := tr.StartFlow(packet.FlowID(f), f, flows, 0); err != nil {
			t.Fatal(err)
		}
	}
	tr.Run(sim.Time(horizon / 2))
	var base [flows]uint64
	for f := range base {
		base[f] = tr.FlowTxBytes(packet.FlowID(f))
	}
	tr.Run(sim.Time(horizon))
	total := 0.0
	for f := range base {
		bits := float64(tr.FlowTxBytes(packet.FlowID(f))-base[f]) * 8
		if bits == 0 {
			t.Errorf("flow %d sent nothing in the measured half", f)
		}
		total += bits / (horizon / 2).Seconds() / 1e9
	}
	if total < 50 || total > 101 {
		t.Errorf("aggregate through the 100G fan-in = %.1f Gbps", total)
	}
	if tr.NICStats().RtxTx == 0 {
		t.Error("scripted drop produced no retransmission")
	}
	if len(tr.FlowTrace(0)) == 0 {
		t.Error("no fine-grained trace for flow 0")
	}
}
