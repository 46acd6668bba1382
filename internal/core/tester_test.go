package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"marlin/internal/aqm"
	"marlin/internal/cc"
	"marlin/internal/fabric"
	"marlin/internal/faults"
	"marlin/internal/fpga"
	"marlin/internal/measure"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/race"
	"marlin/internal/sim"
	"marlin/internal/tofino"
)

func mustAlg(t testing.TB, name string) cc.Algorithm {
	t.Helper()
	alg, err := cc.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return alg
}

func newTester(t testing.TB, cfg Config) *Tester {
	t.Helper()
	eng := sim.NewEngine()
	tester, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tester
}

// stopAndAudit stops flows, lets the packets in flight land, and fails the
// test unless the tester's pools have every packet and telemetry record
// back: a packet a path forgets to Release is a leak nothing else sees.
func stopAndAudit(t *testing.T, tr *Tester, flows ...packet.FlowID) {
	t.Helper()
	for _, f := range flows {
		tr.StopFlow(f)
	}
	tr.Run(tr.Eng.Now().Add(sim.Millisecond))
	if n, m := tr.Outstanding(); n != 0 || m != 0 {
		t.Fatalf("%d packets and %d telemetry records still out after the traffic stopped and settled", n, m)
	}
}

func TestNewDefaults(t *testing.T) {
	tr := newTester(t, Config{Algorithm: mustAlg(t, "dctcp")})
	if tr.Plan().MTU != 1024 || tr.Plan().DataPorts != 12 {
		t.Fatalf("plan = %+v", tr.Plan())
	}
	if tr.Config().Receiver != tofino.TCPReceiver {
		t.Fatal("window algorithm did not default to TCP receiver")
	}
	tr2 := newTester(t, Config{Algorithm: mustAlg(t, "dcqcn")})
	if tr2.Config().Receiver != tofino.RoCEReceiver {
		t.Fatal("rate algorithm did not default to RoCE receiver")
	}
}

func TestNewValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(eng, Config{}); err == nil {
		t.Fatal("nil algorithm accepted")
	}
	if _, err := New(eng, Config{Algorithm: mustAlg(t, "reno"), MTU: 1}); err == nil {
		t.Fatal("bad MTU accepted")
	}
}

func TestSingleFlowReachesLineRate(t *testing.T) {
	// §7.1/§2.1: "throughput can reach the line rate for a single flow".
	tr := newTester(t, Config{
		Algorithm: mustAlg(t, "dctcp"),
		DataPorts: 2,
		Seed:      1,
	})
	if err := tr.StartFlow(0, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	const horizon = 2 * sim.Millisecond
	tr.Run(sim.Time(horizon))
	// Skip slow start: measure the last millisecond.
	bytesAtHalf := uint64(0)
	tr2 := newTester(t, Config{Algorithm: mustAlg(t, "dctcp"), DataPorts: 2, Seed: 1})
	tr2.StartFlow(0, 0, 1, 0)
	tr2.Run(sim.Time(horizon / 2))
	bytesAtHalf = tr2.FlowTxBytes(0)
	total := tr.FlowTxBytes(0)
	gbps := float64(total-bytesAtHalf) * 8 / (horizon / 2).Seconds() / 1e9
	if gbps < 90 {
		t.Fatalf("steady-state single-flow rate = %.1f Gbps, want ~98", gbps)
	}
	if gbps > 100 {
		t.Fatalf("rate %.1f Gbps exceeds line", gbps)
	}
}

func TestFlowCompletionRecordsFCT(t *testing.T) {
	tr := newTester(t, Config{Algorithm: mustAlg(t, "dctcp"), DataPorts: 2, Seed: 2})
	if err := tr.StartFlow(0, 0, 1, 100); err != nil {
		t.Fatal(err)
	}
	tr.Run(sim.Time(20 * sim.Millisecond))
	if tr.FCTs.Len() != 1 {
		t.Fatalf("recorded %d FCTs, want 1", tr.FCTs.Len())
	}
	rec := tr.FCTs.Records()[0]
	if rec.SizePkts != 100 || rec.FCT <= 0 {
		t.Fatalf("record = %+v", rec)
	}
	// 100 packets through an ~8.5us RTT pipe with slow start from 1:
	// at least ~7 RTTs; sanity bound the FCT.
	if us := rec.FCT.Microseconds(); us < 20 || us > 5000 {
		t.Fatalf("fct = %vus, implausible", us)
	}
}

func TestClosedLoopFlowReplacement(t *testing.T) {
	tr := newTester(t, Config{Algorithm: mustAlg(t, "dctcp"), DataPorts: 2, Seed: 3})
	tr.Config()
	count := 0
	tr.OnComplete(func(flow packet.FlowID, fct sim.Duration) {
		count++
		if count < 50 {
			if err := tr.StartFlow(flow, 0, 1, 20); err != nil {
				t.Errorf("restart failed: %v", err)
			}
		}
	})
	if err := tr.StartFlow(0, 0, 1, 20); err != nil {
		t.Fatal(err)
	}
	tr.Run(sim.Time(100 * sim.Millisecond))
	if count < 50 {
		t.Fatalf("completed %d closed-loop flows, want 50", count)
	}
	if tr.FCTs.Len() != count {
		t.Fatalf("FCT records %d != completions %d", tr.FCTs.Len(), count)
	}
}

func TestFanInCongestionSharesFairly(t *testing.T) {
	// Four senders into one destination port: DCTCP should converge to
	// ~25 Gbps each with a high Jain index (§7.3 in miniature).
	tr := newTester(t, Config{
		Algorithm: mustAlg(t, "dctcp"),
		DataPorts: 5,
		AQM:       aqm.Spec{Kind: aqm.KindECN, K: 65}, // K=65 packets
		Seed:      4,
	})
	for f := packet.FlowID(0); f < 4; f++ {
		if err := tr.StartFlow(f, int(f), 4, 0); err != nil {
			t.Fatal(err)
		}
	}
	warm := sim.Time(3 * sim.Millisecond)
	tr.Run(warm)
	var base [4]uint64
	for f := range base {
		base[f] = tr.FlowTxBytes(packet.FlowID(f))
	}
	tr.Run(warm + sim.Time(3*sim.Millisecond))
	var rates []float64
	var total float64
	for f := range base {
		bits := float64(tr.FlowTxBytes(packet.FlowID(f))-base[f]) * 8
		gbps := bits / sim.Duration(3*sim.Millisecond).Seconds() / 1e9
		rates = append(rates, gbps)
		total += gbps
	}
	if total < 80 || total > 102 {
		t.Fatalf("aggregate = %.1f Gbps through a 100G bottleneck: %v", total, rates)
	}
	if jain := measure.JainIndex(rates); jain < 0.95 {
		t.Fatalf("Jain index = %.3f (rates %v), want > 0.95", jain, rates)
	}
}

func TestDCQCNFanInConverges(t *testing.T) {
	// DCQCN's paper parameters recover over hundreds of ms; compress its
	// timescale ~30x so convergence fits a millisecond-horizon test.
	params := cc.DefaultParams(100*sim.Gbps, 1024)
	params.ScaleDCQCNTime(30)
	tr := newTester(t, Config{
		Algorithm: mustAlg(t, "dcqcn"),
		Params:    params,
		DataPorts: 5,
		AQM:       aqm.Spec{Kind: aqm.KindECN, K: 65},
		Seed:      5,
	})
	for f := packet.FlowID(0); f < 4; f++ {
		if err := tr.StartFlow(f, int(f), 4, 0); err != nil {
			t.Fatal(err)
		}
	}
	warm := sim.Time(4 * sim.Millisecond)
	tr.Run(warm)
	var base [4]uint64
	for f := range base {
		base[f] = tr.FlowTxBytes(packet.FlowID(f))
	}
	tr.Run(warm + sim.Time(4*sim.Millisecond))
	var rates []float64
	var total float64
	for f := range base {
		bits := float64(tr.FlowTxBytes(packet.FlowID(f))-base[f]) * 8
		rates = append(rates, bits/sim.Duration(4*sim.Millisecond).Seconds()/1e9)
		total += rates[f]
	}
	if total < 60 || total > 102 {
		t.Fatalf("DCQCN aggregate = %.1f Gbps: %v", total, rates)
	}
	if jain := measure.JainIndex(rates); jain < 0.9 {
		t.Fatalf("DCQCN Jain = %.3f (%v)", jain, rates)
	}
	// Lossless fabric: ECN (not loss) must carry the signal.
	if tr.PipelineCounters().CnpTx == 0 {
		t.Fatal("no CNPs generated under congestion")
	}
	// The fan-in's queue tail-drops while the rates converge.
	stopAndAudit(t, tr, 0, 1, 2, 3)
}

func TestStopFlowReleasesBandwidth(t *testing.T) {
	tr := newTester(t, Config{
		Algorithm: mustAlg(t, "dctcp"),
		DataPorts: 3,
		AQM:       aqm.Spec{Kind: aqm.KindECN, K: 65},
		Seed:      6,
	})
	tr.StartFlow(0, 0, 2, 0)
	tr.StartFlow(1, 1, 2, 0)
	tr.Run(sim.Time(3 * sim.Millisecond))
	tr.StopFlow(1)
	base := tr.FlowTxBytes(0)
	tr.Run(sim.Time(6 * sim.Millisecond))
	gbps := float64(tr.FlowTxBytes(0)-base) * 8 / sim.Duration(3*sim.Millisecond).Seconds() / 1e9
	if gbps < 85 {
		t.Fatalf("survivor rate = %.1f Gbps after peer stopped, want ~98", gbps)
	}
}

func TestScriptedLossOnForwardLink(t *testing.T) {
	tr := newTester(t, Config{Algorithm: mustAlg(t, "dctcp"), DataPorts: 2, Seed: 7})
	script := netem.NewScript().DropOnce(0, 50)
	tr.ForwardLink(1).AddHook(script.Hook)
	tr.StartFlow(0, 0, 1, 200)
	tr.Run(sim.Time(50 * sim.Millisecond))
	if script.Pending() != 0 {
		t.Fatal("scripted drop never fired")
	}
	if tr.FCTs.Len() != 1 {
		t.Fatal("flow did not recover from scripted loss")
	}
	if tr.NICStats().RtxTx == 0 {
		t.Fatal("no retransmission despite a drop")
	}
}

func TestSchedulerModesBothComplete(t *testing.T) {
	for _, mode := range []fpga.SchedulerMode{fpga.ReschedulingFIFO, fpga.CyclicScan} {
		tr := newTester(t, Config{
			Algorithm: mustAlg(t, "dctcp"),
			DataPorts: 2,
			Scheduler: mode,
			MaxFlows:  128,
			Seed:      8,
		})
		for f := packet.FlowID(0); f < 4; f++ {
			tr.StartFlow(f, 0, 1, 50)
		}
		tr.Run(sim.Time(50 * sim.Millisecond))
		if tr.FCTs.Len() != 4 {
			t.Fatalf("%v scheduler completed %d/4 flows", mode, tr.FCTs.Len())
		}
	}
}

func BenchmarkTesterSingleFlow(b *testing.B) {
	tr := newTester(b, Config{Algorithm: mustAlg(b, "dctcp"), DataPorts: 2, Seed: 1})
	if err := tr.StartFlow(0, 0, 1, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Run(tr.Eng.Now().Add(sim.Duration(10 * sim.Microsecond)))
	}
	b.ReportMetric(float64(tr.PipelineCounters().DataTx)/float64(b.N), "pkts/op")
}

func TestReceiverOnFPGA(t *testing.T) {
	// Figure 2's dashed path: the switch truncates DATA over the reserved
	// port; the FPGA runs receiver logic. The flow must behave like the
	// switch-receiver path, with one extra device round trip of latency.
	for _, algo := range []string{"dctcp", "dcqcn"} {
		tr := newTester(t, Config{
			Algorithm:      mustAlg(t, algo),
			DataPorts:      2,
			ReceiverOnFPGA: true,
			Seed:           21,
		})
		if err := tr.StartFlow(0, 0, 1, 300); err != nil {
			t.Fatal(err)
		}
		tr.Run(sim.Time(20 * sim.Millisecond))
		if tr.FCTs.Len() != 1 {
			t.Fatalf("%s: flow did not complete via FPGA receiver", algo)
		}
		c := tr.PipelineCounters()
		if c.AckTx == 0 {
			t.Fatalf("%s: no ACKs relayed from the FPGA receiver", algo)
		}
		if c.InfoTx == 0 {
			t.Fatalf("%s: no INFO generated", algo)
		}
	}
}

func TestReceiverOnFPGALossRecovery(t *testing.T) {
	tr := newTester(t, Config{
		Algorithm:      mustAlg(t, "dctcp"),
		DataPorts:      2,
		ReceiverOnFPGA: true,
		Seed:           22,
	})
	script := netem.NewScript().DropOnce(0, 40)
	tr.ForwardLink(1).AddHook(script.Hook)
	if err := tr.StartFlow(0, 0, 1, 200); err != nil {
		t.Fatal(err)
	}
	tr.Run(sim.Time(50 * sim.Millisecond))
	if tr.FCTs.Len() != 1 {
		t.Fatal("flow did not recover from loss via FPGA receiver")
	}
	if tr.NICStats().RtxTx == 0 {
		t.Fatal("no retransmission")
	}
}

func TestForwardJitterReordersButCompletes(t *testing.T) {
	// Jitter several frame times beyond the gap reorders DATA arrivals;
	// the TCP receiver's out-of-order buffer must absorb it and the flow
	// must still finish without spurious retransmission storms.
	tr := newTester(t, Config{
		Algorithm:     mustAlg(t, "dctcp"),
		DataPorts:     2,
		ForwardJitter: sim.Micros(1), // ~12 frame times at 100G
		Seed:          31,
	})
	if err := tr.StartFlow(0, 0, 1, 500); err != nil {
		t.Fatal(err)
	}
	tr.Run(sim.Time(100 * sim.Millisecond))
	if tr.FCTs.Len() != 1 {
		t.Fatal("flow did not complete under reordering")
	}
	if tr.PipelineCounters().OutOfOrderRx == 0 {
		t.Fatal("jitter produced no reordering (test ineffective)")
	}
}

// TestControlPacketsSurviveWireCodec round-trips every SCHE and INFO
// packet crossing the device links through the 64-byte wire format,
// proving the in-simulation fields all fit the real encoding.
func TestControlPacketsSurviveWireCodec(t *testing.T) {
	tr := newTester(t, Config{Algorithm: mustAlg(t, "dctcp"), DataPorts: 2, Seed: 32})
	checked := 0
	codecHook := func(p *packet.Packet) netem.HookAction {
		switch p.Type {
		case packet.SCHE, packet.INFO, packet.ACK, packet.CNP:
		default:
			return netem.Pass
		}
		var buf [packet.ControlSize]byte
		if err := packet.MarshalControl(p, buf[:]); err != nil {
			t.Errorf("marshal %v: %v", p.Type, err)
			return netem.Pass
		}
		q, err := packet.Unmarshal(buf[:])
		if err != nil {
			t.Errorf("unmarshal %v: %v", p.Type, err)
			return netem.Pass
		}
		if q.Type != p.Type || q.Flow != p.Flow || q.PSN != p.PSN ||
			q.Ack != p.Ack || q.Flags != p.Flags || q.Port != p.Port ||
			q.SentAt != p.SentAt {
			t.Errorf("wire round trip changed %v: %+v -> %+v", p.Type, p, q)
		}
		checked++
		return netem.Pass
	}
	sche, info := tr.DeviceLinks()
	sche[0].AddHook(codecHook)
	info[0].AddHook(codecHook)
	if err := tr.StartFlow(0, 0, 1, 100); err != nil {
		t.Fatal(err)
	}
	tr.Run(sim.Time(10 * sim.Millisecond))
	if checked < 100 {
		t.Fatalf("codec hook saw only %d control packets", checked)
	}
	if tr.FCTs.Len() != 1 {
		t.Fatal("flow did not complete")
	}
}

func TestExtraHopsDeepenPathAndINT(t *testing.T) {
	// Baseline RTT with the 2-hop forward path, then with 2 extra hops:
	// RTT must grow by ~2 link delays, HPCC must see 4 INT entries, and
	// the flow must still run at line rate.
	rtt := func(extra int) float64 {
		tr := newTester(t, Config{
			Algorithm: mustAlg(t, "hpcc"),
			DataPorts: 2,
			EnableINT: true,
			ExtraHops: extra,
			Seed:      41,
		})
		if err := tr.StartFlow(0, 0, 1, 0); err != nil {
			t.Fatal(err)
		}
		tr.Run(sim.Time(2 * sim.Millisecond))
		_, count, ewma := tr.RTTSamples()
		if count == 0 {
			t.Fatal("no RTT probes")
		}
		gbps := float64(tr.FlowTxBytes(0)) * 8 / 0.002 / 1e9
		if gbps < 60 {
			t.Fatalf("extra=%d: throughput %v Gbps", extra, gbps)
		}
		stopAndAudit(t, tr, 0)
		return ewma
	}
	base := rtt(0)
	deep := rtt(2)
	// Two extra hops add 2 x 2us of propagation each way is forward-only:
	// expect roughly +4us of RTT.
	if deep-base < 3 || deep-base > 8 {
		t.Fatalf("RTT grew %.1fus with 2 extra hops, want ~4", deep-base)
	}
}

func TestExtraHopsINTStack(t *testing.T) {
	tr := newTester(t, Config{
		Algorithm: mustAlg(t, "dctcp"),
		DataPorts: 2,
		EnableINT: true,
		ExtraHops: 2,
		Seed:      42,
	})
	var hops uint8
	tr.ForwardLink(1) // bottleneck exists
	// Inspect the INT stack on INFO packets at the NIC by hooking the
	// info link.
	_, info := tr.DeviceLinks()
	info[0].AddHook(func(p *packet.Packet) netem.HookAction {
		if p.Type == packet.INFO && p.INT != nil && p.INT.NHops > hops {
			hops = p.INT.NHops
		}
		return netem.Pass
	})
	if err := tr.StartFlow(0, 0, 1, 100); err != nil {
		t.Fatal(err)
	}
	tr.Run(sim.Time(10 * sim.Millisecond))
	// tx link + bottleneck + 2 extra = 4 stamping hops.
	if hops != 4 {
		t.Fatalf("INT stack depth = %d, want 4", hops)
	}
}

func TestEveryAlgorithmRunsEndToEnd(t *testing.T) {
	// A single finite flow must complete under every registered module,
	// with the receiver mode the deployment derives for it.
	for _, name := range cc.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			params := cc.DefaultParams(100*sim.Gbps, 1024)
			params.ScaleDCQCNTime(30)
			params.HPCCInitWnd = 32
			tr := newTester(t, Config{
				Algorithm: mustAlg(t, name),
				Params:    params,
				DataPorts: 2,
				EnableINT: name == "hpcc",
				Seed:      99,
			})
			if err := tr.StartFlow(0, 0, 1, 300); err != nil {
				t.Fatal(err)
			}
			tr.Run(sim.Time(30 * sim.Millisecond))
			if tr.FCTs.Len() != 1 {
				t.Fatalf("%s: flow did not complete", name)
			}
			if tr.PipelineCounters().ScheDrops != 0 {
				t.Fatalf("%s: false losses", name)
			}
		})
	}
}

func TestTopologyDOT(t *testing.T) {
	tr := newTester(t, Config{
		Algorithm: mustAlg(t, "dctcp"), DataPorts: 2,
		EnablePFC: true, ReceiverOnFPGA: true, Seed: 1,
	})
	dot := tr.TopologyDOT()
	for _, want := range []string{
		"digraph marlin", "FPGA NIC", "SCHE 64B", "INFO 64B",
		"DATA p0", "ACK p1", "PFC pause", "reserved port",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestFabricLeafSpineEndToEnd(t *testing.T) {
	// Replacing the single switch with a 2x2 leaf-spine must leave the
	// tester's flow API untouched: cross-rack flows complete, every switch
	// reports traffic, and the ECMP path counters are populated.
	cfg := Config{
		Algorithm: mustAlg(t, "dctcp"),
		DataPorts: 4,
		Topology:  fabric.Spec{Kind: fabric.KindLeafSpine, Leaves: 2, Spines: 2},
		Seed:      7,
	}
	tr := newTester(t, cfg)
	if got := len(tr.Switches()); got != 4 {
		t.Fatalf("fabric mode built %d switches, want 4", got)
	}
	// Hosts 0,2 live on leaf0 and 1,3 on leaf1: both flows cross the spine.
	if err := tr.StartFlow(0, 0, 1, 200); err != nil {
		t.Fatal(err)
	}
	if err := tr.StartFlow(1, 2, 3, 200); err != nil {
		t.Fatal(err)
	}
	tr.Run(sim.Time(30 * sim.Millisecond))
	if tr.FCTs.Len() != 2 {
		t.Fatalf("completed %d flows over leaf-spine, want 2", tr.FCTs.Len())
	}
	stats := tr.NetworkStats()
	if len(stats) != 4 {
		t.Fatalf("NetworkStats reported %d switches, want 4", len(stats))
	}
	for _, s := range stats {
		if s.Misroutes != 0 {
			t.Fatalf("switch %s misrouted %d packets", s.Name, s.Misroutes)
		}
	}
	var forwarded uint64
	for _, pc := range tr.ECMPPaths() {
		forwarded += pc.TxPackets
	}
	if forwarded == 0 {
		t.Fatal("no traffic attributed to ECMP paths")
	}
	dot := tr.TopologyDOT()
	for _, want := range []string{"leaf0", "spine1", "DATA h3"} {
		if !strings.Contains(dot, want) {
			t.Errorf("fabric DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestFabricDeterministicAcrossRuns(t *testing.T) {
	run := func() ([]sim.Duration, []uint64) {
		tr := newTester(t, Config{
			Algorithm: mustAlg(t, "cubic"),
			DataPorts: 4,
			Topology:  fabric.Spec{Kind: fabric.KindLeafSpine, Leaves: 2, Spines: 2},
			Seed:      11,
		})
		for f := 0; f < 4; f++ {
			if err := tr.StartFlow(packet.FlowID(f), f%2, 2+f%2, 80); err != nil {
				t.Fatal(err)
			}
		}
		tr.Run(sim.Time(30 * sim.Millisecond))
		var fcts []sim.Duration
		for _, rec := range tr.FCTs.Records() {
			fcts = append(fcts, rec.FCT)
		}
		var paths []uint64
		for _, pc := range tr.ECMPPaths() {
			paths = append(paths, pc.TxPackets)
		}
		return fcts, paths
	}
	fct1, path1 := run()
	fct2, path2 := run()
	if !reflect.DeepEqual(fct1, fct2) {
		t.Fatalf("FCTs differ across identical runs:\n%v\n%v", fct1, fct2)
	}
	if !reflect.DeepEqual(path1, path2) {
		t.Fatalf("ECMP path counters differ across identical runs:\n%v\n%v", path1, path2)
	}
	if len(fct1) != 4 {
		t.Fatalf("completed %d flows, want 4", len(fct1))
	}
}

func TestFabricRejectsExtraHops(t *testing.T) {
	eng := sim.NewEngine()
	_, err := New(eng, Config{
		Algorithm: mustAlg(t, "dctcp"),
		DataPorts: 2,
		Topology:  fabric.Spec{Kind: fabric.KindDumbbell},
		ExtraHops: 2,
	})
	if err == nil || !strings.Contains(err.Error(), "ExtraHops") {
		t.Fatalf("Topology+ExtraHops accepted: err=%v", err)
	}
}

func TestResolveLinkSingleSwitch(t *testing.T) {
	tr := newTester(t, Config{Algorithm: mustAlg(t, "dctcp"), DataPorts: 2, Seed: 4})
	if l, err := tr.ResolveLink("tx1"); err != nil || l != tr.TxLink(1) {
		t.Fatalf("tx1 = %p, %v; want %p", l, err, tr.TxLink(1))
	}
	if l, err := tr.ResolveLink("fwd0"); err != nil || l != tr.ForwardLink(0) {
		t.Fatalf("fwd0 = %p, %v; want %p", l, err, tr.ForwardLink(0))
	}
	// 2⁶⁴+1 and 2⁶⁴ must not wrap around to tx1 and fwd0.
	for _, bad := range []string{"tx9", "fwd9", "tx", "leaf0->spine1", "bogus",
		"tx18446744073709551617", "fwd18446744073709551616"} {
		if _, err := tr.ResolveLink(bad); err == nil {
			t.Errorf("ResolveLink(%q) accepted", bad)
		}
	}
}

func TestResolveLinkFabric(t *testing.T) {
	tr := newTester(t, Config{
		Algorithm: mustAlg(t, "dctcp"),
		DataPorts: 4,
		Topology:  fabric.Spec{Kind: fabric.KindLeafSpine, Leaves: 2, Spines: 2},
		Seed:      4,
	})
	if l, err := tr.ResolveLink("leaf0->spine1"); err != nil || l == nil {
		t.Fatalf("leaf0->spine1: %p, %v", l, err)
	}
	if l, err := tr.ResolveLink("host0->leaf0"); err != nil || l != tr.Fab.HostUplink(0) {
		t.Fatalf("host0->leaf0 = %p, %v; want %p", l, err, tr.Fab.HostUplink(0))
	}
	// txN and fwdN name a port's uplink and downlink on every shape.
	if l, err := tr.ResolveLink("tx0"); err != nil || l != tr.TxLink(0) {
		t.Fatalf("tx0 = %p, %v", l, err)
	}
	if l, err := tr.ResolveLink("fwd3"); err != nil || l != tr.Fab.HostDownlink(3) {
		t.Fatalf("fwd3 = %p, %v; want %p", l, err, tr.Fab.HostDownlink(3))
	}
	for _, bad := range []string{"tx4", "fwd4", "fwd"} {
		if _, err := tr.ResolveLink(bad); err == nil {
			t.Errorf("ResolveLink(%q) accepted over a fabric", bad)
		}
	}
}

func TestInstallFaultsLinkDownRecovery(t *testing.T) {
	tr := newTester(t, Config{Algorithm: mustAlg(t, "dctcp"), DataPorts: 2, Seed: 5})
	if err := tr.StartFlow(0, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	plan, err := faults.ParseSpec("linkdown fwd1 at 2ms for 300us")
	if err != nil {
		t.Fatal(err)
	}
	mon, err := tr.InstallFaults(plan)
	if err != nil {
		t.Fatal(err)
	}
	if mon == nil || tr.FaultMonitor() != mon || tr.FaultPlan().String() != plan.String() {
		t.Fatal("installed plan/monitor not surfaced")
	}
	if _, err := tr.InstallFaults(plan); err == nil {
		t.Fatal("second InstallFaults accepted")
	}
	tr.Run(sim.Time(12 * sim.Millisecond))

	link, _ := tr.ResolveLink("fwd1")
	if link.Stats().DownDrops == 0 {
		t.Fatal("outage produced no carrier drops")
	}
	rs := tr.FaultRecoveries()
	if len(rs) != 1 {
		t.Fatalf("got %d recoveries, want 1", len(rs))
	}
	r := rs[0]
	if r.PreGbps < 50 {
		t.Fatalf("pre-fault goodput = %.1f Gbps, want near line rate", r.PreGbps)
	}
	if !r.Recovered {
		t.Fatalf("flow did not recover: %s", r)
	}
	if r.TimeToRecover <= 0 || r.TimeToRecover > 10*sim.Millisecond {
		t.Fatalf("ttr = %v, implausible", r.TimeToRecover)
	}
	if r.RtxDuring == 0 && link.Stats().DownDrops > 0 {
		// Retransmissions may land after the window; only sanity-check the
		// NIC saw the loss at all.
		if tr.NICStats().RtxTx == 0 {
			t.Fatal("carrier drops but no retransmissions ever")
		}
	}
}

// TestECNMarksProbe pins the fault monitor's mark probe: on a fat-tree
// with an incast it reads the same total as summing every switch snapshot,
// and reading it allocates nothing.
func TestECNMarksProbe(t *testing.T) {
	tr := newTester(t, Config{
		Algorithm: mustAlg(t, "dctcp"),
		DataPorts: 8,
		Topology:  fabric.Spec{Kind: fabric.KindFatTree, K: 4},
		AQM:       aqm.Spec{Kind: aqm.KindECN, K: 4},
		Seed:      3,
	})
	for f := 0; f < 6; f++ {
		if err := tr.StartFlow(packet.FlowID(f), f, 7, 0); err != nil {
			t.Fatal(err)
		}
	}
	tr.Run(sim.Time(sim.Millisecond))
	var want uint64
	for _, s := range tr.Switches() {
		for _, p := range s.Stats().Ports {
			want += p.ECNMarks
		}
	}
	if want == 0 {
		t.Fatal("the incast marked nothing; the probe is not exercised")
	}
	if got := tr.ecnMarks(); got != want {
		t.Errorf("ecnMarks = %d, switch snapshots sum to %d", got, want)
	}
	if race.Enabled {
		return
	}
	if a := testing.AllocsPerRun(100, func() { tr.ecnMarks() }); a != 0 {
		t.Errorf("ecnMarks allocates %v times a call, want 0", a)
	}
}

func TestInstallFaultsRejectsUnknownLink(t *testing.T) {
	tr := newTester(t, Config{Algorithm: mustAlg(t, "dctcp"), DataPorts: 2, Seed: 6})
	plan, err := faults.ParseSpec("linkdown leaf0->spine1 at 1ms for 1ms")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.InstallFaults(plan); err == nil {
		t.Fatal("fabric link name accepted on single-switch tester")
	}
	if tr.FaultMonitor() != nil {
		t.Fatal("monitor armed despite failed install")
	}
}

// TestOneIslandAccessorsReadTheDevices pins the unified assembly's identity
// case: on a one-island tester every aggregate accessor is the direct device
// reading, bit for bit (the sum over one island, the owner among one).
func TestOneIslandAccessorsReadTheDevices(t *testing.T) {
	tr := newTester(t, Config{
		Algorithm: mustAlg(t, "dctcp"),
		DataPorts: 3,
		AQM:       aqm.Spec{Kind: aqm.KindECN, K: 65},
		Seed:      9,
	})
	tr.ForwardLink(2).AddHook(netem.NewScript().DropOnce(0, 50).Hook)
	if err := tr.TraceFlow(0); err != nil {
		t.Fatal(err)
	}
	for f := packet.FlowID(0); f < 2; f++ {
		if err := tr.StartFlow(f, int(f), 2, 0); err != nil {
			t.Fatal(err)
		}
	}
	tr.Run(sim.Time(2 * sim.Millisecond))
	if len(tr.islands) != 1 {
		t.Fatalf("Shards 0 built %d islands, want 1", len(tr.islands))
	}
	pl, nic := tr.islands[0].pl, tr.islands[0].nic
	if nic.Stats().RtxTx == 0 || len(nic.Logger().FlowTrace(0)) == 0 {
		t.Fatal("workload produced no retransmission or no trace (test ineffective)")
	}
	gotS, gotN, gotE := tr.RTTSamples()
	wantS, wantN, wantE := nic.RTTSamples()
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"PipelineCounters", tr.PipelineCounters(), pl.Counters()},
		{"PipelinePortCounters(0)", tr.PipelinePortCounters(0), pl.PortCounters(0)},
		{"PipelinePortCounters(2)", tr.PipelinePortCounters(2), pl.PortCounters(2)},
		{"NICStats", tr.NICStats(), nic.Stats()},
		{"FlowTxBytes(1)", tr.FlowTxBytes(1), pl.FlowTxBytes(1)},
		{"FlowTxBytes(unknown)", tr.FlowTxBytes(77), pl.FlowTxBytes(77)},
		{"FlowTrace(0)", tr.FlowTrace(0), nic.Logger().FlowTrace(0)},
		{"RTT samples", gotS, wantS},
		{"RTT count", gotN, wantN},
		{"RTT EWMA bits", math.Float64bits(gotE), math.Float64bits(wantE)},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s = %v, device reads %v", c.name, c.got, c.want)
		}
	}
}

// TestStartFlowPortErrorsSameOnEveryBuild: an out-of-range tx or rx is
// refused with the same text whether the tester has one island or several.
func TestStartFlowPortErrorsSameOnEveryBuild(t *testing.T) {
	build := func(shards int) *Tester {
		return newTester(t, Config{
			Algorithm: mustAlg(t, "dctcp"),
			DataPorts: 4,
			Topology:  fabric.Spec{Kind: fabric.KindLeafSpine, Leaves: 2, Spines: 2},
			Shards:    shards,
			Seed:      3,
		})
	}
	one, many := build(0), build(2)
	for _, c := range []struct{ tx, rx int }{{-1, 1}, {4, 1}, {0, -1}, {0, 4}, {9, 9}} {
		for _, start := range []func(*Tester) error{
			func(tr *Tester) error { return tr.StartFlow(0, c.tx, c.rx, 10) },
			func(tr *Tester) error { return tr.StartFlowCC(0, c.tx, c.rx, 10, "cubic") },
		} {
			e0, e2 := start(one), start(many)
			if e0 == nil || e2 == nil {
				t.Fatalf("tx=%d rx=%d accepted: shards 0: %v, shards 2: %v", c.tx, c.rx, e0, e2)
			}
			if e0.Error() != e2.Error() || !strings.HasPrefix(e0.Error(), "core: ") {
				t.Errorf("tx=%d rx=%d: shards 0 says %q, shards 2 says %q", c.tx, c.rx, e0, e2)
			}
		}
	}
}
