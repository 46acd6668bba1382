package core

import (
	"fmt"
	"reflect"
	"testing"

	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/sim"
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
			got = append(got, placementResponse{p.Flow, p.PSN, p.Ack, p.Flags, p.SentAt, p.INT})
			return netem.Pass
		})
		for i, a := range arrivals {
			in := isl.pl.DataIn(a.rx)
			tr.Eng.ScheduleAt(sim.Time(i+1)*sim.Time(sim.Microsecond), func() {
				d := packet.NewDataECT(a.flow, a.psn, 1024, sim.Time(i), a.ect)
				if a.ce {
					d.Flags |= packet.FlagCE
				}
				d.INT.Push(packet.INTHop{QueueBytes: uint32(64 * i), TxBytes: uint64(1024 * i), Rate: 100 * sim.Gbps, TS: sim.Time(i)})
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
