package main

import (
	"maps"
	"time"

	"marlin/internal/measure"
	"marlin/internal/sim"
)

// countMetrics derives the count-kind per-layer metrics of one rep. They
// are ratios of public registers read at the measured window's boundaries,
// so they repeat exactly for one workload and seed, traced or not.
func countMetrics(r *rep, txPorts int) map[string]float64 {
	d := func(i int) float64 { return float64(r.delta[i]) }
	pkts := d(cDataTx)
	return map[string]float64{
		"sim.events_per_data_pkt": ratio(d(cEvents), pkts),

		"fpga.sche_per_data_pkt":           ratio(d(cScheTx), pkts),
		"fpga.info_per_data_pkt":           ratio(d(cInfoRx), pkts),
		"fpga.events_handled_per_data_pkt": ratio(d(cNICEvents), pkts),
		"fpga.rtx_share":                   ratio(d(cRtxTx), d(cScheTx)),
		"fpga.timeouts":                    d(cTimeouts),
		"fpga.sched_wasted_share":          ratio(d(cSchedWasted), d(cSchedWasted)+d(cScheTx)),

		"tofino.ack_per_data_pkt": ratio(d(cAckTx), pkts),
		"tofino.cnp_per_data_pkt": ratio(d(cCnpTx), pkts),
		"tofino.ooo_rx_share":     ratio(d(cOutOfOrderRx), d(cDataRx)),
		"tofino.false_loss_share": ratio(d(cScheDrops), d(cScheRx)),
		// Per sending port, to sit beside the paper's 11.97 Mpps.
		"tofino.data_mpps_sim": ratio(pkts, r.simWindow.Seconds()*1e6*float64(txPorts)),

		"netem.hops_per_data_pkt": ratio(d(cHops), pkts),
		"netem.drop_share":        ratio(d(cNetDrops), d(cHops)),
		"netem.mark_share":        ratio(d(cNetMarks), d(cHops)),

		"aqm.marks_per_data_pkt": ratio(d(cAQMMarks), pkts),
		"aqm.drops_per_data_pkt": ratio(d(cAQMDrops), pkts),

		"fabric.ecmp_imbalance": r.ecmp,

		"shard.rounds_per_sim_ms":    ratio(d(cShardRounds), r.simWindow.Seconds()*1e3),
		"shard.events_per_round":     ratio(d(cEvents), d(cShardRounds)),
		"shard.carried_per_data_pkt": ratio(d(cShardCarried), pkts),

		"faults.recovered":       float64(r.faultsOK),
		"faults.ttr_us":          r.faultTTR.Microseconds(),
		"workload.flows_started": float64(r.total[cFlowsStarted]),
		"measure.fct_records":    float64(r.total[cFCTs]),
	}
}

func (w *workload) txPorts() int {
	if w.sweep != nil {
		return w.sweep.bgFlows
	}
	return w.steady.txPorts
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tracedPass produces the per-layer ledger: one traced and profiled rep,
// the layer kernels, and for a sharded workload one rep each at Shards 1
// and Shards 0. untraced are the run's ordinary reps and e2e their end-to-end
// metrics, which the traced rep is compared against.
// heapPerTester is the sweep's memory-round reading (a steady workload
// takes its own on the traced rep).
func tracedPass(w *workload, o options, untraced []*rep, e2e map[string]float64, heapPerTester float64) (*rep, map[string]float64, error) {
	nsPkt := e2e["host_ns_per_data_pkt"]
	tr := newTracer()
	tr.rep = len(untraced)
	prof := &cpuProfile{}
	r, err := w.runRep(o.seed, repOpts{tr: tr, prof: prof})
	if err != nil {
		return nil, nil, err
	}
	m := countMetrics(r, w.txPorts())
	shares, err := prof.shares()
	if err != nil {
		return nil, nil, err
	}
	maps.Copy(m, shares)

	tr.rep++
	kernels, err := runKernels(w.kernelParams(o), tr)
	if err != nil {
		return nil, nil, err
	}
	maps.Copy(m, kernels)

	// The shard question: the same simulation on one worker, and on the
	// classic single-engine build.
	m["shard.speedup_vs_1"], m["shard.overhead_vs_classic"] = 0, 0
	if s := w.steady; s != nil && s.spec.Shards > 0 {
		variant := func(shards int) (float64, error) {
			v := *s
			v.spec.Shards = shards
			tr.rep++
			vr, err := (&workload{steady: &v}).runRep(o.seed, repOpts{tr: tr})
			if err != nil {
				return 0, err
			}
			return vr.nsPerPkt(), nil
		}
		one, err := variant(1)
		if err != nil {
			return nil, nil, err
		}
		classic, err := variant(0)
		if err != nil {
			return nil, nil, err
		}
		m["shard.speedup_vs_1"] = ratio(one, nsPkt)
		m["shard.overhead_vs_classic"] = ratio(one, classic)
	}

	pkts := float64(r.delta[cDataTx])
	m["sim.host_ns_per_event"] = ratio(nsPkt, m["sim.events_per_data_pkt"])
	jobs := 1.0
	if w.sweep != nil {
		jobs = float64(w.sweep.rounds * w.sweep.cells())
	} else {
		heapPerTester = r.heapPerTesterMiB
	}
	m["controlplane.validate_us"] = us(r.validate) / jobs
	m["controlplane.deploy_ms"] = ms(r.deploy) / jobs
	m["controlplane.read_registers_us"] = us(r.readRegisters) / jobs
	m["core.start_flow_ns"] = ratio(float64(r.startFlows.Nanoseconds()), float64(r.flowsStarted))
	m["core.deploy_allocs"] = float64(r.deployAllocs) / jobs
	m["core.heap_mib_per_tester"] = heapPerTester
	m["runtime.gc_cycles"] = float64(r.gcCycles)
	m["runtime.gc_pause_ms_total"] = ms(r.gcPause)
	m["runtime.alloc_bytes_per_data_pkt"] = ratio(float64(r.allocBytes), pkts)

	var slices []float64
	var simTime sim.Duration
	var wall time.Duration
	for _, u := range untraced {
		slices = append(slices, u.sliceNsPkt...)
		simTime += u.simWindow
		wall += u.wall
	}
	cdf := measure.NewCDF(slices)
	m["harness.slice_ns_per_data_pkt_p50"] = cdf.Percentile(0.50)
	m["harness.slice_ns_per_data_pkt_p95"] = cdf.Percentile(0.95)
	m["harness.slice_samples"] = float64(len(slices))
	m["harness.sim_us_per_host_s"] = ratio(simTime.Microseconds(), wall.Seconds())
	// The paper's scale: 2e9 DATA packets is about 14 s of 12 x 11.97 Mpps.
	m["harness.paper_scale_host_hours"] = nsPkt * 2e9 / 3.6e12
	m["harness.kernel_coverage"] = ratio(kernelCost(m), nsPkt)
	m["harness.trace_overhead_pct"] = 100 * ratio(r.nsPerPkt()-nsPkt, nsPkt)

	if err := tr.write(o.traceFile, w.name); err != nil {
		return nil, nil, err
	}
	return r, m, nil
}

// kernelCost adds up, per DATA packet, what the standalone kernels say the
// stages of the packet's life cost: each stage kernel times how often the
// workload crosses it. Every stage kernel pays for the engine events it
// schedules itself, and the fpga kernel runs the CC handler, so neither the
// sim nor the cc kernel is added on top.
func kernelCost(m map[string]float64) float64 {
	hops := m["netem.hops_per_data_pkt"]
	acks := m["tofino.ack_per_data_pkt"] + m["tofino.cnp_per_data_pkt"]
	return m["fpga.kernel_ns_per_sche"]*m["fpga.sche_per_data_pkt"] +
		m["tofino.kernel_ns_per_sche_to_data"] +
		m["netem.kernel_ns_per_link_hop"]*(1+acks) + // the uplink, and the ACK's way back
		m["netem.kernel_ns_per_switch_hop"]*hops +
		(m["aqm.kernel_ns_per_enqueue"]+m["aqm.kernel_ns_per_dequeue"])*hops +
		m["tofino.kernel_ns_per_data_to_ack"] +
		m["tofino.kernel_ns_per_ack_to_info"]*m["fpga.info_per_data_pkt"] +
		m["shard.kernel_ns_per_handoff"]*m["shard.carried_per_data_pkt"]
}
