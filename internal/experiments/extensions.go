package experiments

import (
	"fmt"

	"marlin/internal/cc"
	"marlin/internal/controlplane"
	"marlin/internal/core"
	"marlin/internal/measure"
	"marlin/internal/packet"
	"marlin/internal/sim"
	"marlin/internal/tofino"
)

func init() {
	register("ext-hpcc", "extension: INT-based HPCC vs DCTCP/DCQCN — fairness and queue depth under fan-in", ExtHPCC)
	register("ext-pfc", "extension: PFC losslessness vs shallow lossy buffers for RoCE traffic", ExtPFC)
	register("ext-multipipe", "extension: two pipelines + two FPGA ports reach 2.4 Tbps (§4.3 per-pipeline allocation)", ExtMultiPipe)
	register("ext-fpgarecv", "extension: receiver logic on the FPGA via the reserved port (Figure 2 dashed path)", ExtFPGAReceiver)
}

// ExtHPCC evaluates the INT-consuming HPCC module (an extension beyond the
// paper's three reference algorithms, motivated by its §1 discussion of
// INT-based CC): four flows share a bottleneck, and the interesting
// contrast with ECN-based control is the standing queue — HPCC steers to
// 95% utilization with a near-empty queue, while DCTCP rides the marking
// threshold.
func ExtHPCC(opts Options) (*Result, error) {
	res := newResult("ext-hpcc", "fan-in fairness and bottleneck queue: HPCC vs DCTCP",
		"algo", "jain", "total_gbps", "mean_queue_pkts", "max_queue_pkts", "drops")
	horizon := opts.scaleD(5 * sim.Millisecond)
	const flows = 4
	for _, algo := range []string{"hpcc", "dctcp"} {
		eng := sim.NewEngine()
		spec := &controlplane.Spec{
			Algorithm: algo,
			Ports:     flows + 1,
			EnableINT: algo == "hpcc",
			Seed:      opts.Seed,
		}
		if algo == "dctcp" {
			spec.AQM = paperECN
		}
		if algo == "hpcc" {
			// Start near the per-flow BDP share so the entry burst fits
			// the bottleneck buffer (HPCC sizes Winit to the BDP).
			params := cc.DefaultParams(100*sim.Gbps, 1024)
			params.HPCCInitWnd = 32
			spec.Params = &params
		}
		tr, err := spec.Deploy(eng)
		if err != nil {
			return nil, err
		}
		for f := 0; f < flows; f++ {
			if err := tr.StartFlow(packet.FlowID(f), f, flows, 0); err != nil {
				return nil, err
			}
		}
		// Sample the bottleneck backlog through the run.
		var qSamples []float64
		ticker := sim.NewTicker(eng, horizon/200, func() {
			qSamples = append(qSamples, float64(tr.ForwardLink(flows).Queue().Bytes())/1044)
		})
		ticker.Start()
		tr.Run(sim.Time(horizon / 2))
		var base [flows]uint64
		for f := range base {
			base[f] = tr.FlowTxBytes(packet.FlowID(f))
		}
		tr.Run(sim.Time(horizon))

		var rates []float64
		total := 0.0
		for f := range base {
			bits := float64(tr.FlowTxBytes(packet.FlowID(f))-base[f]) * 8
			g := bits / (horizon / 2).Seconds() / 1e9
			rates = append(rates, g)
			total += g
		}
		meanQ, maxQ := 0.0, 0.0
		for _, q := range qSamples[len(qSamples)/2:] {
			meanQ += q
			if q > maxQ {
				maxQ = q
			}
		}
		meanQ /= float64(len(qSamples) / 2)
		drops := tr.ForwardLink(flows).Queue().Stats().Drops
		jain := measure.JainIndex(rates)
		res.AddRow(algo, f2(jain), f2(total), f2(meanQ), f2(maxQ), fmt.Sprintf("%d", drops))
		res.Metrics[algo+"_jain"] = jain
		res.Metrics[algo+"_total_gbps"] = total
		res.Metrics[algo+"_mean_queue_pkts"] = meanQ
		res.Metrics[algo+"_drops"] = float64(drops)
	}
	res.Note("HPCC consumes per-hop telemetry the switch stamps on DATA and the receiver echoes through INFO")
	return res, nil
}

// ExtPFC contrasts a RoCE incast on shallow lossy buffers against the same
// buffers protected by PFC: pause frames replace drops, go-back-N
// retransmissions disappear, and goodput recovers.
func ExtPFC(opts Options) (*Result, error) {
	res := newResult("ext-pfc", "RoCE incast on shallow buffers: lossy vs PFC-protected",
		"fabric", "drops", "gbn_retransmits", "pause_episodes", "goodput_gbps")
	horizon := opts.scaleD(4 * sim.Millisecond)
	const flows = 3
	for _, pfc := range []bool{false, true} {
		eng := sim.NewEngine()
		tr, err := (&controlplane.Spec{
			Algorithm:      "dcqcn",
			Ports:          flows + 1,
			AQM:            paperECN,
			NetQueueBytes:  256 << 10, // shallow: ~245 packets
			EnablePFC:      pfc,
			DCQCNTimeScale: 30 / opts.Scale,
			Seed:           opts.Seed,
		}).Deploy(eng)
		if err != nil {
			return nil, err
		}
		for f := 0; f < flows; f++ {
			if err := tr.StartFlow(packet.FlowID(f), f, flows, 0); err != nil {
				return nil, err
			}
		}
		tr.Run(sim.Time(horizon))
		losses := controlplane.ReadLosses(tr)
		st := tr.NICStats()
		// Goodput: unique DATA delivered to the receiver (drops and
		// retransmitted duplicates excluded).
		rx := tr.PipelineCounters().DataRx - tr.PipelineCounters().DuplicateRx
		goodput := float64(rx) * 1044 * 8 / horizon.Seconds() / 1e9
		name := "lossy"
		if pfc {
			name = "pfc"
		}
		res.AddRow(name, fmt.Sprintf("%d", losses.NetworkDrops),
			fmt.Sprintf("%d", st.RtxTx), fmt.Sprintf("%d", tr.PFCPauses()), f2(goodput))
		res.Metrics[name+"_drops"] = float64(losses.NetworkDrops)
		res.Metrics[name+"_rtx"] = float64(st.RtxTx)
		res.Metrics[name+"_pauses"] = float64(tr.PFCPauses())
		res.Metrics[name+"_goodput_gbps"] = goodput
	}
	res.Note("PFC watermarks: XOFF at half the egress queue, XON at a quarter; pause frames take one link delay")
	return res, nil
}

// ExtFPGAReceiver exercises Figure 2's dashed path: the switch truncates
// arriving DATA to 64 bytes and forwards it over the reserved port to
// receiver logic running on the FPGA (§4.1: for CC whose receiver side is
// "too complex to be implemented in the programmable switch"). The same
// workload runs both ways; the FPGA path must deliver equal goodput with
// one extra device round trip of RTT.
func ExtFPGAReceiver(opts Options) (*Result, error) {
	res := newResult("ext-fpgarecv", "switch receiver vs FPGA receiver over the reserved port",
		"receiver", "completions", "p50_fct_us", "goodput_gbps", "acks")
	horizon := opts.scaleD(10 * sim.Millisecond)
	for _, onFPGA := range []bool{false, true} {
		eng := sim.NewEngine()
		tr, err := (&controlplane.Spec{
			Algorithm:      "dctcp",
			Ports:          2,
			ReceiverOnFPGA: onFPGA,
			Seed:           opts.Seed,
		}).Deploy(eng)
		if err != nil {
			return nil, err
		}
		// Closed-loop fixed-size flows: FCT differences expose the extra
		// round trip.
		const size = 64
		tr.OnComplete(func(fl packet.FlowID, _ sim.Duration) {
			if err := tr.StartFlow(fl, 0, 1, size); err != nil {
				panic(err)
			}
		})
		if err := tr.StartFlow(0, 0, 1, size); err != nil {
			return nil, err
		}
		tr.Run(sim.Time(horizon))
		name := "switch"
		if onFPGA {
			name = "fpga"
		}
		cdf := measure.NewCDF(tr.FCTs.FCTs())
		goodput := float64(tr.PipelineCounters().DataTxBytes) * 8 / horizon.Seconds() / 1e9
		res.AddRow(name, fmt.Sprintf("%d", cdf.Len()), f2(cdf.Percentile(0.5)),
			f2(goodput), fmt.Sprintf("%d", tr.PipelineCounters().AckTx))
		res.Metrics[name+"_completions"] = float64(cdf.Len())
		res.Metrics[name+"_p50_us"] = cdf.Percentile(0.5)
		res.Metrics[name+"_goodput_gbps"] = goodput
	}
	res.Metrics["fct_penalty_us"] = res.Metrics["fpga_p50_us"] - res.Metrics["switch_p50_us"]
	res.Note("one reserved 100G port carries all truncations: 12 ports x 11.97 Mpps x 84 B wire = 96 Gbps")
	return res, nil
}

// ExtMultiPipe demonstrates §4.3's per-pipeline allocation at device
// scale: the paper's switch has two pipelines ("32x100 Gbps ports P4
// programmable ethernet switch with 2 pipelines"), each driven by its own
// 100 Gbps FPGA port, so one tester box reaches 2.4 Tbps.
func ExtMultiPipe(opts Options) (*Result, error) {
	horizon := opts.scaleD(2 * sim.Millisecond)
	const pipelines = 2
	eng := sim.NewEngine()

	res := newResult("ext-multipipe", "two-pipeline device: aggregate CC traffic",
		"pipeline", "data_ports", "throughput_gbps", "false_losses")
	// Registers are not shared across pipelines (§4.3), so each pipeline
	// is an independent deployment; they share the event engine the way
	// the two pipelines share one chassis.
	var testers []*core.Tester
	for pipe := 0; pipe < pipelines; pipe++ {
		tr, err := (&controlplane.Spec{
			Algorithm: "dctcp",
			Seed:      opts.Seed + uint64(pipe),
		}).Deploy(eng)
		if err != nil {
			return nil, err
		}
		for i := 0; i < tr.Plan().DataPorts; i++ {
			if err := tr.StartFlow(packet.FlowID(i), i, i, 0); err != nil {
				return nil, err
			}
		}
		testers = append(testers, tr)
	}
	eng.Run(sim.Time(horizon))
	totalG := 0.0
	for pipe, tr := range testers {
		c := tr.PipelineCounters()
		gbps := float64(c.DataTxBytes) * 8 / horizon.Seconds() / 1e9
		totalG += gbps
		res.AddRow(fmt.Sprintf("%d", pipe), fmt.Sprintf("%d", tr.Plan().DataPorts),
			f2(gbps), fmt.Sprintf("%d", c.ScheDrops))
		res.Metrics[fmt.Sprintf("pipe%d_gbps", pipe)] = gbps
	}
	res.AddRow("total", fmt.Sprintf("%d", pipelines*12), f2(totalG), "0")
	res.Metrics["device_tbps"] = totalG / 1000
	res.Metrics["pipelines"] = pipelines
	plan, _ := tofino.NewPlan(1024, 100*sim.Gbps)
	res.Metrics["per_pipeline_plan_tbps"] = float64(plan.Throughput) / 1e12
	res.Note("a Tofino 3.2T device hosts 2 pipelines; each needs one FPGA 100G port (the U280 has two)")
	return res, nil
}
