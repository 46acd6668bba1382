package experiments

import (
	"fmt"

	"marlin/internal/controlplane"
	"marlin/internal/fabric"
	"marlin/internal/measure"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

func init() {
	register("ext-leafspine", "extension: DCQCN vs CUBIC on a 4x2 leaf-spine under deterministic ECMP imbalance", ExtLeafSpine)
}

// ExtLeafSpine runs the same cross-rack workload under a rate-based
// (DCQCN) and a window-based (CUBIC) algorithm on a multi-switch
// leaf-spine fabric: 8 hosts over 4 leaves and 2 spines, every flow
// crossing the spine tier over one of two equal-cost paths chosen by the
// deterministic ECMP hash. With only a handful of flows the hash cannot
// balance perfectly, so some spine links carry more flows than others —
// the experiment reports goodput, fairness, and the FCT distribution under
// that imbalance, plus the per-path counters that measure it.
func ExtLeafSpine(opts Options) (*Result, error) {
	res := newResult("ext-leafspine", "cross-rack CC on a 4x2 leaf-spine with ECMP",
		"algo", "goodput_gbps", "jain", "fct_p50_us", "fct_p99_us", "ecmp_imbalance", "drops")
	horizon := opts.scaleD(10 * sim.Millisecond)
	const hosts = 8
	const flowSize = 256 // packets; closed-loop restarts build the FCT CDF
	type pathRow struct {
		algo string
		pc   fabric.PathCounter
	}
	var pathRows []pathRow
	for _, algo := range []string{"dcqcn", "cubic"} {
		eng := sim.NewEngine()
		spec := &controlplane.Spec{
			Algorithm: algo,
			Ports:     hosts,
			Topology:  "leafspine:4x2",
			AQM:       paperECN,
			Seed:      opts.Seed,
		}
		if algo == "dcqcn" {
			spec.DCQCNTimeScale = 30 / opts.Scale
		}
		tr, err := spec.Deploy(eng)
		if err != nil {
			return nil, err
		}
		// Ring workload: host h sends to host h+1, which lives on the next
		// leaf (hosts map to leaves round-robin), so every flow is
		// cross-rack and takes one of the two spine paths.
		tr.OnComplete(func(done packet.FlowID, _ sim.Duration) {
			h := int(done)
			if err := tr.StartFlow(done, h, (h+1)%hosts, flowSize); err != nil {
				panic(err)
			}
		})
		for h := 0; h < hosts; h++ {
			if err := tr.StartFlow(packet.FlowID(h), h, (h+1)%hosts, flowSize); err != nil {
				return nil, err
			}
		}
		tr.Run(sim.Time(horizon))

		var rates []float64
		total := 0.0
		for h := 0; h < hosts; h++ {
			g := float64(tr.GoodputBits(packet.FlowID(h))) / horizon.Seconds() / 1e9
			rates = append(rates, g)
			total += g
		}
		jain := measure.JainIndex(rates)
		cdf := measure.NewCDF(tr.FCTs.FCTs())
		if cdf.Len() == 0 {
			return nil, fmt.Errorf("ext-leafspine: no flows completed under %s", algo)
		}
		paths := tr.ECMPPaths()
		imb := fabric.Imbalance(paths)
		losses := controlplane.ReadLosses(tr)
		if losses.Misroutes != 0 {
			return nil, fmt.Errorf("ext-leafspine: %d misroutes under %s", losses.Misroutes, algo)
		}
		res.AddRow(algo, f2(total), f2(jain), f2(cdf.Percentile(0.5)),
			f2(cdf.Percentile(0.99)), f2(imb), fmt.Sprintf("%d", losses.NetworkDrops))
		res.Metrics[algo+"_goodput_gbps"] = total
		res.Metrics[algo+"_jain"] = jain
		res.Metrics[algo+"_fct_p50_us"] = cdf.Percentile(0.5)
		res.Metrics[algo+"_fct_p99_us"] = cdf.Percentile(0.99)
		res.Metrics[algo+"_ecmp_imbalance"] = imb
		res.Metrics[algo+"_drops"] = float64(losses.NetworkDrops)
		for _, pc := range paths {
			pathRows = append(pathRows, pathRow{algo, pc})
			res.Metrics[fmt.Sprintf("%s_path_%s_p%d_pkts", algo, pc.Switch, pc.Port)] = float64(pc.TxPackets)
		}
	}
	for _, pr := range pathRows {
		res.AddRow(fmt.Sprintf("%s path %s->%s", pr.algo, pr.pc.Switch, pr.pc.Next),
			"", "", "", "", "", fmt.Sprintf("%d", pr.pc.TxPackets))
	}
	res.Note("8 flows hash onto 8 leaf uplink choices (4 leaves x 2 spines); the seeded hash pins each flow to one spine, so per-path load is uneven by construction")
	return res, nil
}
