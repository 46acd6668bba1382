package experiments

import (
	"fmt"

	"marlin/internal/controlplane"
	"marlin/internal/measure"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

func init() {
	register("fig6", "single-port multi-flow scheduling: fair share of one 100G port (Figure 6)", Fig6)
	register("fig7", "multi-port scheduling: one line-rate flow per port, 1.2 Tbps aggregate (Figure 7)", Fig7)
}

// Fig6 reproduces the single-port multi-flow scheduling test (§7.2): N
// flows share one tester port through a pass-through network; the
// rescheduling-FIFO scheduler must give them equal rates summing to the
// port's line rate.
func Fig6(opts Options) (*Result, error) {
	const flows = 5
	horizon := opts.scaleD(10 * sim.Millisecond)
	sampleEvery := horizon / 20

	eng := sim.NewEngine()
	tr, err := (&controlplane.Spec{
		Algorithm: "dctcp",
		Ports:     2,
		Seed:      opts.Seed,
	}).Deploy(eng)
	if err != nil {
		return nil, err
	}
	sampler := measure.NewRateSampler(eng, sampleEvery)
	for i := 0; i < flows; i++ {
		fl := packet.FlowID(i)
		if err := tr.StartFlow(fl, 0, 1, 0); err != nil {
			return nil, err
		}
		sampler.Track(fmt.Sprintf("flow%d", i), func() uint64 { return tr.FlowTxBytes(fl) })
	}
	sampler.Start()
	tr.Run(sim.Time(horizon))

	res := newResult("fig6", "per-flow throughput, 5 flows on one 100G port (pass-through)",
		append([]string{"time_ms"}, flowHeaders(flows, "total_gbps")...)...)
	warm := sim.Time(horizon / 4)
	var jains, totals []float64
	series := make([]measure.Series, flows)
	for i := range series {
		series[i] = sampler.Series(fmt.Sprintf("flow%d", i))
	}
	for s := 0; s < len(series[0]); s++ {
		row := []string{f2(series[0][s].At.Seconds() * 1e3)}
		rates := make([]float64, flows)
		total := 0.0
		for i := 0; i < flows; i++ {
			rates[i] = series[i][s].V
			total += rates[i]
			row = append(row, f2(rates[i]))
		}
		row = append(row, f2(total))
		res.AddRow(row...)
		if series[0][s].At >= warm {
			jains = append(jains, measure.JainIndex(rates))
			totals = append(totals, total)
		}
	}
	res.Metrics["mean_jain"] = measure.Series(toSeries(jains)).Mean()
	res.Metrics["mean_total_gbps"] = measure.Series(toSeries(totals)).Mean()
	res.Metrics["flows"] = flows
	res.Note("paper runs 180 s; this run is %v (Options.Scale stretches it)", sim.Duration(horizon))
	return res, nil
}

// Fig7 reproduces the multi-port scheduling test (§7.2): one flow per
// port, forwarded one-to-one; per-port scheduling must not interfere, so
// every flow holds its port's full line rate. At 12 ports this is also
// the paper's 1.2 Tbps aggregate-throughput demonstration (§7.5).
func Fig7(opts Options) (*Result, error) {
	horizon := opts.scaleD(4 * sim.Millisecond)
	sampleEvery := horizon / 8

	eng := sim.NewEngine()
	tr, err := (&controlplane.Spec{
		Algorithm: "dctcp",
		Seed:      opts.Seed,
	}).Deploy(eng)
	if err != nil {
		return nil, err
	}
	ports := tr.Plan().DataPorts
	sampler := measure.NewRateSampler(eng, sampleEvery)
	for i := 0; i < ports; i++ {
		fl := packet.FlowID(i)
		// Flow i: tx port i -> rx port i (one-to-one pass-through).
		if err := tr.StartFlow(fl, i, i, 0); err != nil {
			return nil, err
		}
		sampler.Track(fmt.Sprintf("flow%d", i), func() uint64 { return tr.FlowTxBytes(fl) })
	}
	sampler.Start()
	tr.Run(sim.Time(horizon))

	res := newResult("fig7", "per-flow throughput, one flow per port (12x100G one-to-one)",
		append([]string{"time_ms"}, flowHeaders(ports, "total_gbps")...)...)
	warm := sim.Time(horizon / 2)
	var minRate, meanTotal float64
	minRate = 1e18
	nWarm := 0
	series := make([]measure.Series, ports)
	for i := range series {
		series[i] = sampler.Series(fmt.Sprintf("flow%d", i))
	}
	for s := 0; s < len(series[0]); s++ {
		row := []string{f2(series[0][s].At.Seconds() * 1e3)}
		total := 0.0
		for i := 0; i < ports; i++ {
			v := series[i][s].V
			total += v
			row = append(row, f2(v))
			if series[0][s].At >= warm && v < minRate {
				minRate = v
			}
		}
		row = append(row, f2(total))
		res.AddRow(row...)
		if series[0][s].At >= warm {
			meanTotal += total
			nWarm++
		}
	}
	if nWarm > 0 {
		meanTotal /= float64(nWarm)
	}
	res.Metrics["ports"] = float64(ports)
	res.Metrics["min_flow_gbps_steady"] = minRate
	res.Metrics["mean_total_gbps"] = meanTotal
	res.Metrics["mean_total_tbps"] = meanTotal / 1000
	res.Metrics["sche_drops"] = float64(tr.PipelineCounters().ScheDrops)
	res.Note("aggregate approaches 1.2 Tbps minus the 2%% Ethernet preamble/IFG overhead the paper's rate constants include")
	return res, nil
}

func flowHeaders(n int, extra ...string) []string {
	out := make([]string, 0, n+len(extra))
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprintf("flow%d_gbps", i))
	}
	return append(out, extra...)
}

func toSeries(vs []float64) measure.Series {
	s := make(measure.Series, len(vs))
	for i, v := range vs {
		s[i] = measure.Point{V: v}
	}
	return s
}
