package experiments

import (
	"fmt"

	"marlin/internal/core"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

func init() {
	register("ablate-rxdemux", "per-port RX FIFOs vs one shared FIFO: INFO loss and throughput (§5.3)", AblateRXDemux)
}

// AblateRXDemux compares §5.3's per-port RX FIFO demultiplexing against a
// single shared FIFO. The RX timer paces each FIFO at one port's DATA
// rate; a single FIFO receiving the aggregate of many ports therefore
// overflows, INFO packets are lost, and the CC modules starve — the flows
// cannot grow their windows without acknowledgement events.
func AblateRXDemux(opts Options) (*Result, error) {
	res := newResult("ablate-rxdemux", "6-port line-rate run: per-port RX FIFOs vs one shared FIFO",
		"design", "info_rx", "info_drops", "drop_pct", "throughput_gbps")
	horizon := opts.scaleD(2 * sim.Millisecond)
	const ports = 6
	for _, single := range []bool{false, true} {
		eng := sim.NewEngine()
		tr, err := core.New(eng, core.Config{
			Algorithm:    ablAlg("dctcp"),
			DataPorts:    ports,
			SingleRXFIFO: single,
			Seed:         opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		for p := 0; p < ports; p++ {
			if err := tr.StartFlow(packet.FlowID(p), p, p, 0); err != nil {
				return nil, err
			}
		}
		tr.Run(sim.Time(horizon))
		st := tr.NICStats()
		pct := 0.0
		if st.InfoRx > 0 {
			pct = 100 * float64(st.InfoDrops) / float64(st.InfoRx)
		}
		gbps := float64(tr.PipelineCounters().DataTxBytes) * 8 / horizon.Seconds() / 1e9
		name := "per-port"
		if single {
			name = "shared"
		}
		res.AddRow(name, fmt.Sprintf("%d", st.InfoRx), fmt.Sprintf("%d", st.InfoDrops),
			f2(pct), f2(gbps))
		res.Metrics[name+"_drop_pct"] = pct
		res.Metrics[name+"_gbps"] = gbps
	}
	res.Metrics["throughput_ratio"] = res.Metrics["per-port_gbps"] /
		maxFloat(res.Metrics["shared_gbps"], 1e-9)
	res.Note("§5.3: \"let INFO packets entering the FPGA join different RX FIFOs according to the port they arrive at\"")
	return res, nil
}
