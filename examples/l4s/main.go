// L4s: the classic cc × AQM coexistence matrix, aqmt-style. Two DCTCP
// and two CUBIC senders share one victim port while the grid sweeps the
// queue discipline (step-ECN drop-tail, PIE, CoDel, coupled DualPI2) and
// the path RTT. Under step ECN every CE mark means the same thing to both
// algorithms, but they answer differently — DCTCP trims proportionally to
// the marked fraction while CUBIC multiplicatively backs off once per
// window — so DCTCP starves CUBIC. DualPI2 (RFC 9332) separates them
// instead: DCTCP's ECT(1) packets ride the shallow-marked L4S queue,
// CUBIC's ECT(0) packets see the squared classic probability, and the
// coupling factor balances the two, restoring fairness while holding the
// L4S queue's p99 sojourn below the classic queue's.
//
// A second leg floods the victim with 80 Gbps of raw UDP-style DATA under
// DualPI2, once as Not-ECT (a plain blast the AQM can only drop) and once
// as ECT(1) (an abuser squatting in the low-latency queue), measuring what
// each variant does to the well-behaved traffic and to L4S latency.
//
// Every cell is one fleet job; all numbers are pure functions of the
// built-in seed, so the output is byte-identical across runs and worker
// counts.
package main

import (
	"fmt"
	"log"
	"os"

	"marlin"
)

const (
	horizon = 10 * marlin.Millisecond

	senders = 4 // 2 DCTCP + 2 CUBIC, all into one victim port
	victim  = 4

	// 1 MB of buffer at 100 Gbps is ~80us of standing queue: enough room
	// for drop-tail to hurt and for the AQM delay targets (in the tens of
	// microseconds, scaled to this fabric's RTT) to bind.
	queueBytes = 1 << 20
)

// The AQM axis. The baseline is drop-tail with step ECN at 65 packets,
// today's datacenter default.
var aqms = []struct{ name, spec string }{
	{"stepecn", "ecn:k=65"},
	{"pie", "pie:target=10us,tupdate=50us,alpha=250,beta=2500"},
	{"codel", "codel:target=10us,interval=500us"},
	{"dualpi2", "dualpi2:target=10us,tupdate=50us,step=20us,shift=20us,alpha=250,beta=2500"},
}

// The RTT axis: per-link one-way delay (2us is the testbed default).
var rtts = []struct {
	name  string
	delay marlin.Duration
}{
	{"rtt8us", 2 * marlin.Microsecond},
	{"rtt40us", 10 * marlin.Microsecond},
}

func main() {
	type cell struct{ aqm, rtt string }
	var cells []cell
	var jobs []marlin.FleetJob
	for _, a := range aqms {
		for _, r := range rtts {
			a, r := a, r
			cells = append(cells, cell{a.name, r.name})
			jobs = append(jobs, marlin.FleetJob{
				ID:  a.name + "/" + r.name,
				Run: func() (*marlin.FleetOutput, error) { return coexistOne(a.spec, r.delay) },
			})
		}
	}
	floods := []string{"not", "ect1"}
	for _, ect := range floods {
		ect := ect
		jobs = append(jobs, marlin.FleetJob{
			ID:  "flood/" + ect,
			Run: func() (*marlin.FleetOutput, error) { return floodOne(ect) },
		})
	}
	results, err := marlin.RunFleet(jobs, marlin.FleetOptions{Progress: os.Stderr})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("coexistence: 2 DCTCP + 2 CUBIC senders -> 1 port, 10ms")
	fmt.Printf("%-9s %-8s %-12s %-12s %-7s %-10s %-12s %-10s\n",
		"aqm", "rtt", "dctcp_gbps", "cubic_gbps", "ratio", "mark_rate", "classic_p99", "l4s_p99")
	for i, c := range cells {
		r := results[i]
		if !r.OK() {
			fmt.Printf("%-9s %-8s FAILED: %s\n", c.aqm, c.rtt, r.Err)
			continue
		}
		m := r.Output.Metrics
		fmt.Printf("%-9s %-8s %-12.2f %-12.2f %-7.3f %-10.4f %-12.1f %-10.1f\n",
			c.aqm, c.rtt, m["dctcp_gbps"], m["cubic_gbps"], m["ratio"],
			m["mark_rate"], m["classic_p99_us"], m["l4s_p99_us"])
	}

	fmt.Println("\noverload: 80G flood at the victim under dualpi2, 1 DCTCP + 1 CUBIC background")
	fmt.Printf("%-6s %-12s %-12s %-10s %-10s %-12s %-12s %-10s\n",
		"flood", "dctcp_gbps", "cubic_gbps", "l4s_share", "mark_rate", "aqm_drops", "classic_p99", "l4s_p99")
	for i, ect := range floods {
		r := results[len(cells)+i]
		if !r.OK() {
			fmt.Printf("%-6s FAILED: %s\n", ect, r.Err)
			continue
		}
		m := r.Output.Metrics
		fmt.Printf("%-6s %-12.2f %-12.2f %-10.3f %-10.4f %-12.0f %-12.1f %-10.1f\n",
			ect, m["dctcp_gbps"], m["cubic_gbps"], m["l4s_share"],
			m["mark_rate"], m["aqm_drops"], m["classic_p99_us"], m["l4s_p99_us"])
	}
	fmt.Println("\nstep ECN lets DCTCP starve CUBIC; DualPI2 levels the ratio and keeps L4S p99 under classic")
	fmt.Println("a Not-ECT flood lands in the classic queue and is policed by p'^2 drops;")
	fmt.Println("an ECT(1) flood squats in the L4S queue, soaking up marks it never answers")
}

// coexistOne runs the mixed-cc contention cell: flows 0-1 are DCTCP (the
// deployment default, ECT(1)), flows 2-3 are started with a per-flow CUBIC
// override (ECT(0)), all unbounded into the victim.
func coexistOne(aqmSpec string, delay marlin.Duration) (*marlin.FleetOutput, error) {
	cfg := marlin.TestConfig{
		Algorithm:     "dctcp",
		Ports:         senders + 1,
		NetQueueBytes: queueBytes,
		LinkDelay:     delay,
		AQM:           aqmSpec,
		Seed:          17,
	}
	t, err := marlin.NewTester(cfg)
	if err != nil {
		return nil, err
	}
	for p := 0; p < senders; p++ {
		f := marlin.FlowID(p)
		if p < 2 {
			err = t.StartFlow(f, p, victim, 0)
		} else {
			err = t.StartFlowCC(f, p, victim, 0, "cubic")
		}
		if err != nil {
			return nil, err
		}
	}
	t.RunFor(horizon)

	gbps := func(f marlin.FlowID) float64 {
		return float64(t.FlowTxBytes(f)) * 8 / horizon.Seconds() / 1e9
	}
	dctcp := gbps(0) + gbps(1)
	cubic := gbps(2) + gbps(3)
	ratio := 0.0
	if dctcp > 0 {
		ratio = cubic / dctcp
	}
	m := map[string]float64{
		"dctcp_gbps": dctcp,
		"cubic_gbps": cubic,
		"ratio":      ratio,
	}
	victimStats(t, m)
	return &marlin.FleetOutput{Metrics: m}, nil
}

// floodOne runs the overload leg: DualPI2 on the victim, one DCTCP and one
// CUBIC background flow, and a 40 Gbps flood whose ECT codepoint decides
// which queue absorbs the abuse.
func floodOne(ect string) (*marlin.FleetOutput, error) {
	t, err := marlin.NewTester(marlin.TestConfig{
		Algorithm:     "dctcp",
		Ports:         senders + 1,
		NetQueueBytes: queueBytes,
		AQM:           "dualpi2:target=10us,tupdate=50us,step=20us,shift=20us,alpha=250,beta=2500",
		Pattern:       fmt.Sprintf("flood:peak=80G,victim=%d,ect=%s", victim, ect),
		Seed:          17,
	})
	if err != nil {
		return nil, err
	}
	if err := t.StartFlow(0, 0, victim, 0); err != nil {
		return nil, err
	}
	if err := t.StartFlowCC(1, 1, victim, 0, "cubic"); err != nil {
		return nil, err
	}
	t.RunFor(horizon)

	ov := t.Overload()
	if ov == nil {
		return nil, fmt.Errorf("no overload telemetry")
	}
	m := map[string]float64{
		"dctcp_gbps": float64(t.FlowTxBytes(0)) * 8 / horizon.Seconds() / 1e9,
		"cubic_gbps": float64(t.FlowTxBytes(1)) * 8 / horizon.Seconds() / 1e9,
	}
	victimStats(t, m)
	return &marlin.FleetOutput{Metrics: m}, nil
}

// victimStats folds the victim egress queue's marking rate and per-band
// p99 sojourn into the metric map (zeros under plain drop-tail, where no
// discipline is attached).
func victimStats(t *marlin.Tester, m map[string]float64) {
	ps := t.NetworkTelemetry()[0].Ports[victim]
	rate := 0.0
	if ps.TxPackets > 0 {
		rate = float64(ps.ECNMarks) / float64(ps.TxPackets)
	}
	m["mark_rate"] = rate
	if ps.AQM != nil {
		m["classic_p99_us"] = ps.AQM.SojournP99Us[0]
		m["l4s_p99_us"] = ps.AQM.SojournP99Us[1]
		m["aqm_drops"] = float64(ps.AQM.Drops)
		total := ps.AQM.BandDeqPackets[0] + ps.AQM.BandDeqPackets[1]
		if total > 0 {
			m["l4s_share"] = float64(ps.AQM.BandDeqPackets[1]) / float64(total)
		}
	}
}
