package main

import "sort"

// endToEndDef is one user-visible metric. All are lower-is-better. bound is
// the share of the baseline median by which the metric may worsen before
// compare calls it a regression.
type endToEndDef struct {
	name, unit string
	bound      float64
}

// endToEnd mirrors BENCHMARK.json's end_to_end list (bench_test.go checks
// the two agree). The bounds are wide because they have to hold across seeds
// and across this class of shared machine: runs of one commit spread by 4-10%
// in host time, and fattree_shards2's allocations per packet by 6% from seed
// to seed. check_fail_share is not listed: a metric that is 0 on
// every healthy run has no relative bound, so the failure count travels as
// the result's attempted/failed pair and compare treats any increase of
// failed/attempted as a regression.
var endToEnd = []endToEndDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "host_ns_per_data_pkt", unit: "ns", bound: 0.25},
	{name: "allocs_per_data_pkt", unit: "1", bound: 0.25},
	{name: "heap_live_mib", unit: "MiB", bound: 0.10},
}

// kind says how a per-layer metric is obtained.
type kind int

const (
	// count metrics are exact ratios of public register readouts; they
	// repeat bit for bit for one workload and seed.
	count kind = iota
	// timing metrics divide host time measured around the benchmark's own
	// calls into the library.
	timing
	// kernel metrics are host-ns of a standalone timed loop over one
	// layer's public functions, parameterised by the workload.
	kernel
	// share metrics are CPU-profile flat samples folded by package.
	share
)

type perLayerDef struct {
	name, unit string
	kind       kind
}

// perLayer mirrors BENCHMARK.json's per_layer list, in ledger order.
var perLayer = []perLayerDef{
	{"sim.events_per_data_pkt", "1", count},
	{"sim.host_ns_per_event", "ns", timing},
	{"sim.kernel_ns_per_event", "ns", kernel},
	{"sim.kernel_ns_per_cancel_rearm", "ns", kernel},
	{"sim.cpu_share", "1", share},

	{"packet.kernel_ns_per_lifecycle", "ns", kernel},
	{"packet.kernel_ns_per_clone", "ns", kernel},
	{"packet.cpu_share", "1", share},

	{"fpga.sche_per_data_pkt", "1", count},
	{"fpga.info_per_data_pkt", "1", count},
	{"fpga.events_handled_per_data_pkt", "1", count},
	{"fpga.rtx_share", "1", count},
	{"fpga.timeouts", "count", count},
	{"fpga.sched_wasted_share", "1", count},
	{"fpga.kernel_ns_per_sche", "ns", kernel},
	{"fpga.kernel_allocs_per_sche", "1", kernel},
	{"fpga.cpu_share", "1", share},

	{"cc.kernel_ns_per_event", "ns", kernel},
	{"cc.cpu_share", "1", share},

	{"tofino.kernel_ns_per_sche_to_data", "ns", kernel},
	{"tofino.kernel_ns_per_data_to_ack", "ns", kernel},
	{"tofino.kernel_ns_per_ack_to_info", "ns", kernel},
	{"tofino.ack_per_data_pkt", "1", count},
	{"tofino.cnp_per_data_pkt", "1", count},
	{"tofino.ooo_rx_share", "1", count},
	{"tofino.false_loss_share", "1", count},
	{"tofino.data_mpps_sim", "Mpps", count},
	{"tofino.cpu_share", "1", share},

	{"netem.hops_per_data_pkt", "1", count},
	{"netem.drop_share", "1", count},
	{"netem.mark_share", "1", count},
	{"netem.kernel_ns_per_link_hop", "ns", kernel},
	{"netem.kernel_ns_per_switch_hop", "ns", kernel},
	{"netem.cpu_share", "1", share},

	{"aqm.marks_per_data_pkt", "1", count},
	{"aqm.drops_per_data_pkt", "1", count},
	{"aqm.kernel_ns_per_enqueue", "ns", kernel},
	{"aqm.kernel_ns_per_dequeue", "ns", kernel},
	{"aqm.cpu_share", "1", share},

	{"fabric.build_ms", "ms", kernel},
	{"fabric.ecmp_imbalance", "1", count},
	{"fabric.kernel_ns_per_traversal", "ns", kernel},
	{"fabric.cpu_share", "1", share},

	{"shard.rounds_per_sim_ms", "1/ms", count},
	{"shard.events_per_round", "1", count},
	{"shard.carried_per_data_pkt", "1", count},
	{"shard.kernel_ns_per_idle_round", "ns", kernel},
	{"shard.kernel_ns_per_handoff", "ns", kernel},
	{"shard.speedup_vs_1", "1", timing},
	{"shard.overhead_vs_classic", "1", timing},
	{"shard.cpu_share", "1", share},

	{"faults.recovered", "count", count},
	{"faults.ttr_us", "us", count},
	{"faults.cpu_share", "1", share},
	{"workload.flows_started", "count", count},
	{"workload.kernel_ns_per_arrival", "ns", kernel},
	{"workload.cpu_share", "1", share},
	{"measure.fct_records", "count", count},
	{"measure.kernel_ns_per_fct_record", "ns", kernel},
	{"measure.kernel_us_per_cdf_10k", "us", kernel},
	{"measure.cpu_share", "1", share},

	{"controlplane.validate_us", "us", timing},
	{"controlplane.deploy_ms", "ms", timing},
	{"controlplane.read_registers_us", "us", timing},
	{"core.start_flow_ns", "ns", timing},
	{"core.deploy_allocs", "count", timing},
	{"core.heap_mib_per_tester", "MiB", timing},
	{"controlplane.cpu_share", "1", share},
	{"core.cpu_share", "1", share},

	{"scenario.kernel_us_per_parse", "us", kernel},
	{"fleet.kernel_us_per_job", "us", kernel},

	{"runtime.gc_cpu_share", "1", share},
	{"runtime.other_cpu_share", "1", share},
	{"runtime.gc_cycles", "count", timing},
	{"runtime.gc_pause_ms_total", "ms", timing},
	{"runtime.alloc_bytes_per_data_pkt", "B", timing},

	{"harness.slice_ns_per_data_pkt_p50", "ns", timing},
	{"harness.slice_ns_per_data_pkt_p95", "ns", timing},
	{"harness.slice_samples", "count", timing},
	{"harness.sim_us_per_host_s", "us/s", timing},
	{"harness.paper_scale_host_hours", "h", timing},
	{"harness.kernel_coverage", "1", timing},
	{"harness.trace_overhead_pct", "%", timing},
}

// ratio is a/b, or 0 when the denominator is 0: a layer that is absent from
// a workload reports zeros rather than NaN, which JSON cannot carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so the spreads
// compare prints are the ones the acceptance procedure computes. Fewer than
// two samples have no spread: all three cuts are the sample itself.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}
