package core

import (
	"fmt"
	"reflect"
	"testing"

	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/sim"
	"marlin/internal/tofino"
)

// placementResponse is what the sender learns of one Module A response:
// the fields of the INFO packet Module B makes of it.
type placementResponse struct {
	Flow   packet.FlowID
	PSN    uint32
	Ack    uint32
	Flags  packet.Flags
	SentAt sim.Time
	INT    packet.INTRecord
}

// Module A answers alike in both placements (§4.1): the same DATA
// arrivals, fed to the switch's receiver or across the reserved port to
// the FPGA's, come back as the same responses in the same order. Two flows
// arrive on two receiver ports; their arrivals are in order, reordered,
// duplicated, gapped and CE-marked, in both ECT codepoints, each carrying
// INT telemetry.
func TestReceiverPlacementsAnswerAlike(t *testing.T) {
	type arrival struct {
		flow packet.FlowID
		rx   int
		psn  uint32
		ce   bool
		ect  packet.ECT
	}
	var arrivals []arrival
	for _, f := range []struct {
		flow packet.FlowID
		rx   int
	}{{1, 1}, {2, 2}} {
		for i, psn := range []uint32{0, 1, 3, 4, 2, 2, 5, 6, 7, 9, 8, 10, 10, 11} {
			arrivals = append(arrivals, arrival{
				flow: f.flow, rx: f.rx, psn: psn,
				ce:  i%3 == 1 || psn >= 9,
				ect: packet.ECT0 + packet.ECT(i%2),
			})
		}
	}

	run := func(algo string, onFPGA bool) []placementResponse {
		tr := newTester(t, Config{Algorithm: mustAlg(t, algo), DataPorts: 3, ReceiverOnFPGA: onFPGA, Seed: 1})
		isl := tr.islands[0]
		var got []placementResponse
		isl.info.AddHook(func(p *packet.Packet) netem.HookAction {
			r := placementResponse{p.Flow, p.PSN, p.Ack, p.Flags, p.SentAt, packet.INTRecord{}}
			if p.INT != nil {
				r.INT = *p.INT
			}
			got = append(got, r)
			return netem.Pass
		})
		for i, a := range arrivals {
			in := isl.pl.DataIn(a.rx)
			tr.Eng.ScheduleAt(sim.Time(i+1)*sim.Time(sim.Microsecond), func() {
				d := packet.NewDataECT(a.flow, a.psn, 1024, sim.Time(i), a.ect)
				if a.ce {
					d.Flags |= packet.FlagCE
				}
				d.PushINT(packet.INTHop{QueueBytes: uint32(64 * i), TxBytes: uint64(1024 * i), Rate: 100 * sim.Gbps, TS: sim.Time(i)})
				in.Receive(d)
			})
		}
		tr.Run(sim.Time(100 * sim.Microsecond))
		return got
	}

	for _, algo := range []string{"dctcp", "dcqcn"} {
		sw, fp := run(algo, false), run(algo, true)
		var seen packet.Flags
		for _, r := range sw {
			seen |= r.Flags
		}
		want := packet.FlagECNEcho // the TCP receiver's CE echo
		if algo == "dcqcn" {
			want = packet.FlagNACK | packet.FlagCNPNotify // go-back-N and paced CNPs
		}
		if len(sw) == 0 || seen&want != want || seen&packet.ECTMask == 0 {
			t.Fatalf("%s: switch placement answered %d responses with flags %#x, want %#x and ECT bits among them", algo, len(sw), seen, want)
		}
		if !reflect.DeepEqual(sw, fp) {
			t.Errorf("%s: placements answer differently:\nswitch %s\nfpga   %s", algo, placementDiff(sw, fp), placementDiff(fp, sw))
		}
	}
}

// Module A's registers read alike in both placements: a 200-packet flow
// that loses PSN 40 once on its way to the receiver port is answered with
// the same ACKs, NACKs and CNPs, and counted with the same out-of-order and
// duplicate arrivals, whether the switch or the FPGA across the reserved
// port runs the receiver. One count is the placement's own: go-back-N
// receives out of order until the sender's rewind arrives, and the FPGA
// placement's NACK crosses the reserved-port pair first (two device-cable
// delays and two control-frame wire times), so its receiver may count that
// many more line-rate arrivals.
func TestReceiverPlacementsCountAlike(t *testing.T) {
	run := func(algo string, onFPGA bool) (tofino.Counters, tofino.Plan) {
		tr := newTester(t, Config{Algorithm: mustAlg(t, algo), DataPorts: 2, ReceiverOnFPGA: onFPGA, Seed: 1})
		tr.ForwardLink(1).AddHook(netem.NewScript().DropOnce(0, 40).Hook)
		if err := tr.StartFlow(0, 0, 1, 200); err != nil {
			t.Fatal(err)
		}
		tr.Run(sim.Time(5 * sim.Millisecond))
		if tr.FCTs.Len() != 1 {
			t.Fatalf("%s onFPGA=%v: flow did not complete", algo, onFPGA)
		}
		return tr.PipelineCounters(), tr.Plan()
	}
	for _, algo := range []string{"dctcp", "dcqcn"} {
		sw, plan := run(algo, false)
		fp, _ := run(algo, true)
		if sw.OutOfOrderRx == 0 {
			t.Fatalf("%s: the drop caused no out-of-order arrival on the switch placement", algo)
		}
		for _, c := range []struct {
			name   string
			sw, fp uint64
		}{
			{"AckTx", sw.AckTx, fp.AckTx},
			{"NackTx", sw.NackTx, fp.NackTx},
			{"CnpTx", sw.CnpTx, fp.CnpTx},
			{"DuplicateRx", sw.DuplicateRx, fp.DuplicateRx},
		} {
			if c.sw != c.fp {
				t.Errorf("%s: %s reads %d on the switch placement, %d on the FPGA placement", algo, c.name, c.sw, c.fp)
			}
		}
		var slack uint64
		if algo == "dcqcn" {
			detour := 2 * (200*sim.Nanosecond + plan.PortRate.Serialize(packet.WireSize(packet.ControlSize)))
			slack = uint64(detour/plan.PortRate.Serialize(packet.WireSize(plan.MTU))) + 1
		}
		if fp.OutOfOrderRx < sw.OutOfOrderRx || fp.OutOfOrderRx > sw.OutOfOrderRx+slack {
			t.Errorf("%s: OutOfOrderRx reads %d on the switch placement, %d on the FPGA placement (want %d more at most)",
				algo, sw.OutOfOrderRx, fp.OutOfOrderRx, slack)
		}
	}
}

// placementDiff prints a's length and its first response that differs
// from b's at the same position.
func placementDiff(a, b []placementResponse) string {
	for i := range a {
		if i >= len(b) || !reflect.DeepEqual(a[i], b[i]) {
			r := a[i]
			return fmt.Sprintf("%d responses; #%d flow %d psn %d ack %d flags %#x sentAt %d int hops %d",
				len(a), i, r.Flow, r.PSN, r.Ack, r.Flags, r.SentAt, r.INT.NHops)
		}
	}
	return fmt.Sprintf("%d responses", len(a))
}
