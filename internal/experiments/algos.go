package experiments

import (
	"fmt"

	"marlin/internal/cc"
	"marlin/internal/controlplane"
	"marlin/internal/measure"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

func init() {
	register("ext-algos", "extension: head-to-head CC comparison under fan-in — the paper's selection use case", ExtAlgos)
}

// ExtAlgos runs the identical 4:1 fan-in workload under every registered
// CC algorithm and reports the metrics an operator selects on: fairness,
// bottleneck utilization, standing queue, and drops. This is the workflow
// the paper motivates ("cloud providers face the challenge of selecting
// from a multitude of CC algorithms"), executed on the tester.
func ExtAlgos(opts Options) (*Result, error) {
	res := newResult("ext-algos", "4 flows -> 1 port: fairness / utilization / queue / loss per algorithm",
		"algo", "mode", "jain", "total_gbps", "mean_queue_pkts", "drops", "rtx")
	horizon := opts.scaleD(6 * sim.Millisecond)
	const flows = 4
	for _, name := range cc.Names() {
		if name == "cbr" {
			continue // no control law; measured in table-capabilities
		}
		alg, err := cc.New(name)
		if err != nil {
			return nil, err
		}
		spec := &controlplane.Spec{
			Algorithm: name,
			Ports:     flows + 1,
			Seed:      opts.Seed,
		}
		// Every leg marks at the paper's K but three. HPCC reads INT, not
		// ECN. The loss-based legs model classic senders that did not
		// negotiate ECN: both honour RFC 3168 ECE, so marking would park
		// them at the threshold like DCTCP and erase the deep-queue/drop
		// signature this comparison is after. The ECN-enabled coexistence
		// case lives in examples/scenarios/l4s.scn.
		if name != "cubic" && name != "reno" && name != "hpcc" {
			spec.AQM = paperECN
		}
		switch {
		case name == "hpcc":
			spec.EnableINT = true
			params := cc.DefaultParams(100*sim.Gbps, 1024)
			params.HPCCInitWnd = 32
			spec.Params = &params
		case name == "timely":
			// Delay thresholds sized to this fabric's RTT regime
			// (base ~9 us): react well before the buffer fills.
			spec.NetQueueBytes = 8 << 20
			params := cc.DefaultParams(100*sim.Gbps, 1024)
			params.TimelyTLow = sim.Micros(15)
			params.TimelyTHigh = sim.Micros(75)
			params.TimelyAddStep = 200 * sim.Mbps
			spec.Params = &params
		case alg.Mode() == cc.RateMode:
			// RoCE-style transports assume losslessness.
			spec.NetQueueBytes = 8 << 20
			spec.DCQCNTimeScale = 30 / opts.Scale
		}
		eng := sim.NewEngine()
		tr, err := spec.Deploy(eng)
		if err != nil {
			return nil, err
		}
		for f := 0; f < flows; f++ {
			if err := tr.StartFlow(packet.FlowID(f), f, flows, 0); err != nil {
				return nil, err
			}
		}
		var qSamples measure.Series
		ticker := sim.NewTicker(eng, horizon/120, func() {
			qSamples = append(qSamples, measure.Point{
				At: eng.Now(),
				V:  float64(tr.ForwardLink(flows).Queue().Bytes()) / float64(packet.WireSize(1024)),
			})
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
		jain := measure.JainIndex(rates)
		meanQ := qSamples.After(sim.Time(horizon / 2)).Mean()
		drops := controlplane.ReadLosses(tr).NetworkDrops
		rtx := tr.NICStats().RtxTx
		res.AddRow(name, alg.Mode().String(), f2(jain), f2(total), f2(meanQ),
			fmt.Sprintf("%d", drops), fmt.Sprintf("%d", rtx))
		res.Metrics[name+"_jain"] = jain
		res.Metrics[name+"_total_gbps"] = total
		res.Metrics[name+"_queue_pkts"] = meanQ
		res.Metrics[name+"_drops"] = float64(drops)
	}
	res.Note("identical workload and seed per algorithm; hpcc runs with INT instead of ECN, rate algorithms on deep (PFC-like) buffers")
	return res, nil
}
