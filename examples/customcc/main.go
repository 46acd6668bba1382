// Customcc: write a congestion-control algorithm against the paper's
// Table 3 module interface, register it, and test it — requirement R2
// ("the CC algorithm emulated by the tester should be customizable").
//
// The module below is a window-based AIMD with a delay guard, written the
// way an HLS module is: all per-flow state lives in the 64-byte cust-var
// region, accessed through fixed 32-bit register slots, with a declared
// fast-path cycle budget.
package main

import (
	"fmt"
	"log"

	"marlin"
)

// aimdCC halves on any congestion signal (ECN echo or an RTT above a
// threshold) at most once per window, and otherwise adds one packet per
// window of ACKs.
type aimdCC struct{}

// Register slots in the cust-var region.
const (
	slotCwnd   = 0 // congestion window, packets
	slotCwrEnd = 1 // PSN fencing one reduction per window
	slotAcked  = 2 // ACKs since last additive increase
)

const rttCapUs = 100 // delay guard: halve if RTT exceeds 100 us

func (aimdCC) Name() string        { return "aimd" }
func (aimdCC) Mode() marlin.CCMode { return marlin.WindowMode }
func (aimdCC) FastPathCycles() int { return 4 }
func (aimdCC) SlowPathCycles() int { return 0 }

func (aimdCC) InitFlow(cust, slow *marlin.CCState, p *marlin.CCParams) {
	marlin.RegsOf(cust).SetU32(slotCwnd, p.InitCwnd)
}

func (aimdCC) OnEvent(in *marlin.CCInput, out *marlin.CCOutput) {
	r := marlin.RegsOf(in.Cust)
	cwnd := r.U32(slotCwnd)
	switch in.Type {
	case marlin.EvStart:
		out.Schedule = true
	case marlin.EvRx:
		congested := in.Flags.Has(marlin.FlagECNEcho) ||
			in.ProbedRTT.Microseconds() > rttCapUs
		switch {
		case congested && marlin.SeqLT(r.U32(slotCwrEnd), in.Ack+1):
			// Multiplicative decrease, once per window of data.
			cwnd = max32(cwnd/2, in.Params.MinCwnd)
			r.SetU32(slotCwrEnd, in.Nxt)
			r.SetU32(slotAcked, 0)
		case marlin.SeqDiff(in.Ack, in.Una) > 0:
			// Additive increase: +1 packet per cwnd ACKs.
			if r.Add32(slotAcked, uint32(marlin.SeqDiff(in.Ack, in.Una))) >= cwnd {
				r.SetU32(slotAcked, 0)
				cwnd++
			}
		}
		out.Schedule = true
		out.ArmTimer(marlin.TimerRTO, in.Params.RTOMin)
	case marlin.EvTimeout:
		if marlin.SeqDiff(in.Nxt, in.Una) > 0 {
			cwnd = in.Params.MinCwnd
			out.Rtx, out.RtxPSN = true, in.Una
			out.Schedule = true
			out.ArmTimer(marlin.TimerRTO, in.Params.RTOMin)
		}
	}
	r.SetU32(slotCwnd, cwnd)
	out.SetCwnd, out.Cwnd = true, cwnd
	out.LogU32x4(cwnd, r.U32(slotAcked), 0, uint32(in.Type))
}

func (aimdCC) OnSlowPath(code uint8, cust, slow *marlin.CCState, in *marlin.CCInput, out *marlin.CCOutput) {
}

func max32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

func main() {
	marlin.RegisterCC("aimd", func() marlin.CCAlgorithm { return aimdCC{} })

	// Two aimd flows compete over one bottleneck; the delay guard plus
	// AIMD should converge them to a fair share.
	t, err := marlin.NewTester(marlin.TestConfig{
		Algorithm: "aimd",
		Ports:     3,
		AQM:       "ecn:k=65",
		Seed:      3,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := t.TraceFlow(0); err != nil {
		log.Fatal(err)
	}
	if err := t.StartFlow(0, 0, 2, 0); err != nil {
		log.Fatal(err)
	}
	if err := t.StartFlow(1, 1, 2, 0); err != nil {
		log.Fatal(err)
	}
	const horizon = 5 * marlin.Millisecond
	t.RunFor(horizon)

	var rates []float64
	for f := marlin.FlowID(0); f < 2; f++ {
		gbps := float64(t.FlowTxBytes(f)) * 8 / horizon.Seconds() / 1e9
		rates = append(rates, gbps)
		fmt.Printf("aimd flow %d: %6.2f Gbps\n", f, gbps)
	}
	fmt.Printf("aggregate %.2f Gbps through a 100G bottleneck, jain %.4f\n",
		rates[0]+rates[1], marlin.JainIndex(rates))

	trace := t.FlowTrace(0)
	if len(trace) == 0 {
		log.Fatal("no trace recorded for flow 0")
	}
	fmt.Printf("flow 0 traced %d events; final cwnd %d packets\n",
		len(trace), trace[len(trace)-1].A)
}
