package experiments

import (
	"fmt"

	"marlin/internal/controlplane"
	"marlin/internal/measure"
	"marlin/internal/packet"
	"marlin/internal/sim"
	"marlin/internal/workload"
)

func init() {
	register("fig10", "comprehensive test: WebSearch FCT CDF at max concurrency vs ideal sharing (Figure 10)", Fig10)
}

// Fig10 reproduces the comprehensive test (§7.5): the tester runs the
// maximum concurrency of WebSearch closed-loop flows across all ports for
// DCTCP and DCQCN, and compares the FCT distribution against the ideal
// where every flow always receives an even share of its port (computed by
// a fluid processor-sharing model over the actual arrival schedule).
//
// Scale: the paper sustains 65,536 concurrent flows for minutes; the CI
// default runs 12 ports x 48 flows (576 concurrent) for 12 ms. Flow count
// and horizon grow with Options.Scale; the BRAM model itself is validated
// for 65,536 flows in the fpga package tests.
func Fig10(opts Options) (*Result, error) {
	res := newResult("fig10", "WebSearch FCT CDF (us) at maximum concurrency, vs ideal fair sharing",
		"algo", "percentile", "measured_us", "ideal_us", "slowdown")
	for _, algo := range []string{"dctcp", "dcqcn"} {
		if err := fig10Run(opts, algo, res); err != nil {
			return nil, err
		}
	}
	res.Note("paper scale is 65,536 concurrent flows at 1.2 Tbps for minutes; see EXPERIMENTS.md for the scaling")
	return res, nil
}

func fig10Run(opts Options, algo string, res *Result) error {
	flowsPerPort := opts.scaleN(48)
	horizon := opts.scaleD(12 * sim.Millisecond)
	dist := workload.WebSearch()

	eng := sim.NewEngine()
	spec := &controlplane.Spec{
		Algorithm:      algo,
		AQM:            paperECN,
		NetQueueBytes:  4 << 20,
		DCQCNTimeScale: 10 / opts.Scale,
		Seed:           opts.Seed,
	}
	tr, err := spec.Deploy(eng)
	if err != nil {
		return err
	}
	ports := tr.Plan().DataPorts
	mtu := tr.Config().MTU

	// Track the full arrival schedule per port for the ideal calculator.
	type arrival struct {
		port int
		a    measure.Arrival
	}
	var arrivals []arrival
	gens := make([]*workload.Generator, ports*flowsPerPort)
	flowPort := func(fl packet.FlowID) int { return int(fl) / flowsPerPort }

	start := func(fl packet.FlowID) {
		port := flowPort(fl)
		size, _ := gens[fl].Next()
		arrivals = append(arrivals, arrival{port: port, a: measure.Arrival{
			At:   eng.Now(),
			Bits: float64(size) * float64(packet.WireSize(mtu)) * 8,
		}})
		if err := tr.StartFlow(fl, port, port, size); err != nil {
			panic(err)
		}
	}
	tr.OnComplete(func(fl packet.FlowID, _ sim.Duration) { start(fl) })

	rng := sim.NewRand(opts.Seed)
	for port := 0; port < ports; port++ {
		for k := 0; k < flowsPerPort; k++ {
			fl := packet.FlowID(port*flowsPerPort + k)
			gen, err := workload.NewGenerator(dist, workload.ClosedLoop, 0, rng.Split())
			if err != nil {
				return err
			}
			gens[fl] = gen
		}
	}
	for fl := range gens {
		start(packet.FlowID(fl))
	}
	tr.Run(sim.Time(horizon))

	// Ideal: per-port fluid processor sharing over the same arrivals.
	var idealFCTs []float64
	for port := 0; port < ports; port++ {
		var portArr []measure.Arrival
		for _, ar := range arrivals {
			if ar.port == port {
				portArr = append(portArr, ar.a)
			}
		}
		fcts := measure.ProcessorSharingFCT(portArr, tr.Config().PortRate)
		for i, d := range fcts {
			// Unfinished flows (zero) are excluded, mirroring the
			// measured side which only records completions.
			if d > 0 && portArr[i].At.Add(d) <= sim.Time(horizon) {
				idealFCTs = append(idealFCTs, d.Microseconds())
			}
		}
	}

	measured := measure.NewCDF(tr.FCTs.FCTs())
	ideal := measure.NewCDF(idealFCTs)
	for _, p := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99} {
		m, id := measured.Percentile(p), ideal.Percentile(p)
		res.AddRow(algo, fmt.Sprintf("p%g", p*100), f2(m), f2(id), f2(m/id))
		res.Metrics[fmt.Sprintf("%s_p%g_slowdown", algo, p*100)] = m / id
	}
	res.Metrics[algo+"_completions"] = float64(measured.Len())
	res.Metrics[algo+"_concurrent_flows"] = float64(ports * flowsPerPort)
	// Short-flow median (<= 53 packets, the WebSearch small-flow half):
	// the paper highlights DCQCN's advantage on short flows.
	var short []float64
	for _, rec := range tr.FCTs.Records() {
		if rec.SizePkts <= 53 {
			short = append(short, rec.FCT.Microseconds())
		}
	}
	res.Metrics[algo+"_short_median_us"] = measure.NewCDF(short).Percentile(0.5)
	res.Metrics[algo+"_throughput_gbps"] = float64(tr.PipelineCounters().DataTxBytes) * 8 /
		sim.Duration(horizon).Seconds() / 1e9
	return nil
}
