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
	register("ext-openloop", "extension: open-loop Poisson arrivals — FCT vs offered load sweep", ExtOpenLoop)
}

// ExtOpenLoop sweeps offered load with Poisson flow arrivals — the
// open-loop counterpart to §7.5's closed loop (which the paper notes is
// deliberately *not* Poisson). FCT percentiles versus load show the
// classic hockey stick as the bottleneck saturates.
func ExtOpenLoop(opts Options) (*Result, error) {
	res := newResult("ext-openloop", "DCTCP WebSearch FCT vs offered load (Poisson open loop)",
		"load", "completions", "p50_fct_us", "p99_fct_us", "achieved_gbps")
	horizon := opts.scaleD(25 * sim.Millisecond)
	dist := workload.WebSearch()
	const slots = 8 // concurrent generator slots on one port pair

	for _, load := range []float64{0.3, 0.5, 0.7, 0.9} {
		eng := sim.NewEngine()
		tr, err := (&controlplane.Spec{
			Algorithm: "dctcp",
			Ports:     2,
			AQM:       paperECN,
			Seed:      opts.Seed,
		}).Deploy(eng)
		if err != nil {
			return nil, err
		}
		// Each slot offers load/slots of the port: the per-slot think
		// time comes from the distribution mean and the slot's share.
		gap, err := workload.MeanGapForLoad(load/slots, 100*sim.Gbps, dist, 1024)
		if err != nil {
			return nil, err
		}
		rng := sim.NewRand(opts.Seed)
		gens := make([]*workload.Generator, slots)
		for i := range gens {
			g, err := workload.NewGenerator(dist, workload.PoissonOpenLoop, gap, rng.Split())
			if err != nil {
				return nil, err
			}
			gens[i] = g
		}
		var start func(fl packet.FlowID)
		start = func(fl packet.FlowID) {
			size, after := gens[fl].Next()
			eng.Schedule(after, func() {
				if err := tr.StartFlow(fl, 0, 1, size); err != nil {
					panic(err)
				}
			})
		}
		tr.OnComplete(func(fl packet.FlowID, _ sim.Duration) { start(fl) })
		for i := 0; i < slots; i++ {
			start(packet.FlowID(i))
		}
		tr.Run(sim.Time(horizon))

		cdf := measure.NewCDF(tr.FCTs.FCTs())
		achieved := float64(tr.PipelineCounters().DataTxBytes) * 8 / horizon.Seconds() / 1e9
		key := fmt.Sprintf("%.0f", load*100)
		res.AddRow(fmt.Sprintf("%.1f", load), fmt.Sprintf("%d", cdf.Len()),
			f2(cdf.Percentile(0.5)), f2(cdf.Percentile(0.99)), f2(achieved))
		res.Metrics["p99_at_"+key] = cdf.Percentile(0.99)
		res.Metrics["p50_at_"+key] = cdf.Percentile(0.5)
		res.Metrics["gbps_at_"+key] = achieved
		res.Metrics["n_at_"+key] = float64(cdf.Len())
	}
	res.Note("open loop approximated by per-slot exponential think times (§7.5 notes the paper's own arrivals are closed-loop)")
	return res, nil
}
