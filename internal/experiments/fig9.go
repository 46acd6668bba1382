package experiments

import (
	"fmt"

	"marlin/internal/controlplane"
	"marlin/internal/measure"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/refcc"
	"marlin/internal/sim"
	"marlin/internal/workload"
)

func init() {
	register("fig9", "flow fidelity: DCQCN FCT CDF, Marlin vs ConnectX-style NIC, 2-cast-1 & 3-cast-1 (Figure 9)", Fig9)
}

// Fig9 reproduces the flow-fidelity test (§7.4): an n-cast-1 incast with
// five WebSearch closed-loop flows per sender port, run once on Marlin's
// DCQCN module and once on the ConnectX-style commercial-NIC model, and
// compared as FCT CDFs. The paper's claim is distributional agreement, not
// equality ("due to the proprietary nature of the DCQCN implementation in
// commercial NICs, it was not possible to achieve complete equivalence").
func Fig9(opts Options) (*Result, error) {
	res := newResult("fig9", "FCT CDF (us): Marlin DCQCN vs ConnectX-style DCQCN, n-cast-1, 5 flows/port",
		"scenario", "percentile", "marlin_us", "connectx_us", "ratio")
	for _, n := range []int{2, 3} {
		if err := fig9Run(opts, n, res); err != nil {
			return nil, err
		}
	}
	res.Note("ConnectX-5 replaced by an independent commercial-NIC-style DCQCN model; see DESIGN.md")
	res.Note("WebSearch closed loop; DCQCN timescale compressed to fit the shortened horizon")
	return res, nil
}

const fig9FlowsPerPort = 5

func fig9Run(opts Options, ncast int, res *Result) error {
	horizon := opts.scaleD(40 * sim.Millisecond)
	dist := workload.WebSearch()

	marlin, err := fig9Marlin(opts, ncast, horizon, dist)
	if err != nil {
		return err
	}
	connectx := fig9ConnectX(opts, ncast, horizon, dist)

	mc := measure.NewCDF(marlin)
	cx := measure.NewCDF(connectx)
	scenario := fmt.Sprintf("%d-cast-1", ncast)
	for _, p := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99} {
		m, c := mc.Percentile(p), cx.Percentile(p)
		ratio := m / c
		res.AddRow(scenario, fmt.Sprintf("p%g", p*100), f2(m), f2(c), f2(ratio))
		res.Metrics[fmt.Sprintf("%dcast_p%g_ratio", ncast, p*100)] = ratio
	}
	res.Metrics[fmt.Sprintf("%dcast_marlin_flows", ncast)] = float64(mc.Len())
	res.Metrics[fmt.Sprintf("%dcast_connectx_flows", ncast)] = float64(cx.Len())
	return nil
}

// fig9Marlin runs the incast on the tester: sender ports 0..n-1, receiver
// port n, five closed-loop flows per sender port.
func fig9Marlin(opts Options, ncast int, horizon sim.Duration, dist *workload.SizeDist) ([]float64, error) {
	eng := sim.NewEngine()
	tr, err := (&controlplane.Spec{
		Algorithm:      "dcqcn",
		Ports:          ncast + 1,
		AQM:            paperECN,
		NetQueueBytes:  8 << 20,
		DCQCNTimeScale: 10 / opts.Scale,
		Seed:           opts.Seed,
	}).Deploy(eng)
	if err != nil {
		return nil, err
	}
	gens := make(map[packet.FlowID]*workload.Generator)
	flowPort := make(map[packet.FlowID]int)
	tr.OnComplete(func(flow packet.FlowID, _ sim.Duration) {
		size, _ := gens[flow].Next()
		if err := tr.StartFlow(flow, flowPort[flow], ncast, size); err != nil {
			panic(err)
		}
	})
	rng := sim.NewRand(opts.Seed)
	for port := 0; port < ncast; port++ {
		for k := 0; k < fig9FlowsPerPort; k++ {
			flow := packet.FlowID(port*fig9FlowsPerPort + k)
			gen, err := workload.NewGenerator(dist, workload.ClosedLoop, 0, rng.Split())
			if err != nil {
				return nil, err
			}
			gens[flow] = gen
			flowPort[flow] = port
			size, _ := gen.Next()
			if err := tr.StartFlow(flow, port, ncast, size); err != nil {
				return nil, err
			}
		}
	}
	tr.Run(sim.Time(horizon))
	return tr.FCTs.FCTs(), nil
}

// fig9ConnectX runs the same incast on the commercial-NIC model: n hosts
// of five QPs each, through a fan-in switch to one receiver.
func fig9ConnectX(opts Options, ncast int, horizon sim.Duration, dist *workload.SizeDist) []float64 {
	eng := sim.NewEngine()
	var fcts []float64

	// Reverse path: receiver -> senders (ACK/NACK/CNP), demultiplexed to
	// the owning QP by flow ID.
	qps := make(map[packet.FlowID]*refcc.ConnectXQP)
	reverse := netem.NewLink(eng, netem.LinkConfig{
		Rate: 100 * sim.Gbps, Delay: sim.Micros(4), QueueBytes: 1 << 20,
	}, netem.NodeFunc(func(p *packet.Packet) {
		if qp, ok := qps[p.Flow]; ok {
			qp.Receive(p)
		}
	}))
	recv := refcc.NewRoCEReceiver(eng, sim.Micros(4), reverse)

	// Bottleneck: the switch's egress toward the receiver.
	bottleneck := netem.NewLink(eng, netem.LinkConfig{
		Rate: 100 * sim.Gbps, Delay: sim.Micros(2),
		QueueBytes: 8 << 20, ECN: netem.StepMarking(65, 1024),
		RNG: sim.NewRand(opts.Seed ^ 0xc5),
	}, recv)

	rng := sim.NewRand(opts.Seed)
	scale := 10 / opts.Scale
	for host := 0; host < ncast; host++ {
		// Host uplink into the switch, fronted by the NIC's QP arbiter:
		// excess offered load waits in per-QP send queues served
		// round-robin at the port rate, never dropped or FIFO-blocked.
		uplink := netem.NewLink(eng, netem.LinkConfig{
			Rate: 100 * sim.Gbps, Delay: sim.Micros(2), QueueBytes: 1 << 20,
		}, bottleneck)
		arbiter := refcc.NewPortArbiter(eng, 100*sim.Gbps, uplink)
		for k := 0; k < fig9FlowsPerPort; k++ {
			flow := packet.FlowID(host*fig9FlowsPerPort + k)
			cfg := refcc.ConnectXConfig{
				Flow: flow, MTU: 1024, LineRate: 100 * sim.Gbps,
				AlphaTimer: sim.Duration(55e6 / scale),
				RateTimer:  sim.Duration(300e6 / scale),
				RateAI:     sim.Rate(40e6 * scale),
				RateHAI:    sim.Rate(400e6 * scale),
			}
			qp := refcc.NewConnectXQP(eng, cfg, arbiter)
			qps[flow] = qp
			qp.OnComplete(func(_ packet.FlowID, _ uint32, fct sim.Duration) {
				fcts = append(fcts, fct.Microseconds())
			})
			gen, err := workload.NewGenerator(dist, workload.ClosedLoop, 0, rng.Split())
			if err != nil {
				panic(err)
			}
			// Stagger QP start like a verbs tool bringing up its queue
			// pairs, softening the synchronized line-rate entry burst.
			eng.Schedule(sim.Duration(k+1)*sim.Micros(20), func() {
				qp.RunClosedLoop(func() uint32 { s, _ := gen.Next(); return s })
			})
		}
	}
	eng.Run(sim.Time(horizon))
	return fcts
}
