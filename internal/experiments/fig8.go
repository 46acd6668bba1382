package experiments

import (
	"fmt"

	"marlin/internal/controlplane"
	"marlin/internal/measure"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

func init() {
	register("fig8", "congestion test: staggered flows over one bottleneck, DCTCP & DCQCN (Figure 8)", Fig8)
}

// Fig8 reproduces the congestion test (§7.3): flows start one by one on
// different tester ports, all forwarded to the same destination port, then
// terminate one by one. Both DCTCP and DCQCN must converge to even shares
// of the bottleneck and reclaim bandwidth as flows leave.
func Fig8(opts Options) (*Result, error) {
	res := newResult("fig8", "per-flow throughput under a shared bottleneck (4 staggered flows)",
		"algo", "time_ms", "flow0_gbps", "flow1_gbps", "flow2_gbps", "flow3_gbps", "total_gbps")
	for _, algo := range []string{"dctcp", "dcqcn"} {
		if err := fig8Run(opts, algo, res); err != nil {
			return nil, err
		}
	}
	res.Note("paper staggers flows over 180 s; this run compresses the schedule (DCQCN timescale scaled, see EXPERIMENTS.md)")
	return res, nil
}

func fig8Run(opts Options, algo string, res *Result) error {
	const flows = 4
	phase := opts.scaleD(3 * sim.Millisecond) // per start/stop step
	horizon := sim.Duration(2*flows) * phase
	sampleEvery := phase / 6

	eng := sim.NewEngine()
	spec := &controlplane.Spec{
		Algorithm:      algo,
		Ports:          flows + 1,
		AQM:            paperECN,
		Seed:           opts.Seed,
		DCQCNTimeScale: 100 / opts.Scale,
	}
	if algo == "dcqcn" {
		// RoCE fabrics are lossless (PFC); deep buffers stand in so ECN,
		// not loss, carries the congestion signal.
		spec.NetQueueBytes = 8 << 20
	}
	tr, err := spec.Deploy(eng)
	if err != nil {
		return err
	}
	sampler := measure.NewRateSampler(eng, sampleEvery)
	for i := 0; i < flows; i++ {
		fl := packet.FlowID(i)
		sampler.Track(fmt.Sprintf("flow%d", i), func() uint64 { return tr.FlowTxBytes(fl) })
	}
	sampler.Start()
	// Staggered starts on ports 0..3 toward port 4, then staggered stops.
	for i := 0; i < flows; i++ {
		i := i
		eng.ScheduleAt(sim.Time(sim.Duration(i)*phase), func() {
			if err := tr.StartFlow(packet.FlowID(i), i, flows, 0); err != nil {
				panic(err)
			}
		})
		eng.ScheduleAt(sim.Time(sim.Duration(flows+i)*phase), func() {
			tr.StopFlow(packet.FlowID(i))
		})
	}
	tr.Run(sim.Time(horizon))

	series := make([]measure.Series, flows)
	for i := range series {
		series[i] = sampler.Series(fmt.Sprintf("flow%d", i))
	}
	for s := 0; s < len(series[0]); s++ {
		row := []string{algo, f2(series[0][s].At.Seconds() * 1e3)}
		total := 0.0
		for i := 0; i < flows; i++ {
			v := series[i][s].V
			total += v
			row = append(row, f2(v))
		}
		row = append(row, f2(total))
		res.AddRow(row...)
	}

	// Fairness in the fully-overlapped window (all flows active),
	// measured over its final third so the last starter's line-rate
	// entry transient has converged.
	overlapFrom := sim.Time(sim.Duration(flows)*phase - phase/3)
	overlapTo := sim.Time(sim.Duration(flows) * phase)
	var rates []float64
	for i := 0; i < flows; i++ {
		var sum float64
		var n int
		for _, p := range series[i] {
			if p.At >= overlapFrom && p.At < overlapTo {
				sum += p.V
				n++
			}
		}
		if n > 0 {
			rates = append(rates, sum/float64(n))
		}
	}
	total := 0.0
	for _, r := range rates {
		total += r
	}
	res.Metrics[algo+"_overlap_jain"] = measure.JainIndex(rates)
	res.Metrics[algo+"_overlap_total_gbps"] = total
	// Reclaim: the last flow's rate while it runs alone (after the other
	// three stopped, before its own stop).
	reclaimFrom := sim.Time(sim.Duration(2*flows-2)*phase + phase/2)
	reclaimTo := sim.Time(sim.Duration(2*flows-1) * phase)
	var sum float64
	var n int
	for _, p := range series[flows-1] {
		if p.At >= reclaimFrom && p.At < reclaimTo {
			sum += p.V
			n++
		}
	}
	if n > 0 {
		res.Metrics[algo+"_reclaim_gbps"] = sum / float64(n)
	}
	return nil
}
