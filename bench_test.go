package marlin_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§7), each regenerating its artifact through the
// experiment registry and reporting the figure's headline numbers as
// benchmark metrics. Run with:
//
//	go test -bench=. -benchmem
//
// Wall-clock note: these are whole-system simulations, so a single
// iteration spans seconds; benchtime=1x is implied by their cost.

import (
	"fmt"
	"testing"

	"marlin"
)

// benchExperiment runs one experiment per iteration and republishes the
// chosen metrics through b.ReportMetric.
func benchExperiment(b *testing.B, name string, scale float64, metrics ...string) {
	b.Helper()
	opts := marlin.ExperimentOptions{Scale: scale, Seed: 1}
	var last *marlin.ExperimentResult
	for i := 0; i < b.N; i++ {
		res, err := marlin.RunExperiment(name, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, m := range metrics {
		if v, ok := last.Metrics[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

// --- Tables ---

func BenchmarkTableCapabilities(b *testing.B) {
	benchExperiment(b, "table-capabilities", 1, "needed_mpps", "host_mpps")
}

func BenchmarkTableAmplification(b *testing.B) {
	benchExperiment(b, "table-amplify", 1,
		"measured_tbps_1024", "amp_1024", "amp_1518")
}

func BenchmarkTableCCModules(b *testing.B) {
	benchExperiment(b, "table-ccmodules", 1, "dctcp_clk", "bram_pct")
}

// --- Figures ---

func BenchmarkFig5CCCorrectness(b *testing.B) {
	benchExperiment(b, "fig5", 1,
		"cwnd_norm_rmse", "alpha_max_abs_dev", "marlin_peak_cwnd")
}

func BenchmarkFig6SinglePort(b *testing.B) {
	benchExperiment(b, "fig6", 1, "mean_jain", "mean_total_gbps")
}

func BenchmarkFig7MultiPort(b *testing.B) {
	benchExperiment(b, "fig7", 1, "mean_total_tbps", "min_flow_gbps_steady")
}

func BenchmarkFig8Congestion(b *testing.B) {
	benchExperiment(b, "fig8", 1,
		"dctcp_overlap_jain", "dcqcn_overlap_jain", "dctcp_reclaim_gbps")
}

func BenchmarkFig9Fidelity(b *testing.B) {
	benchExperiment(b, "fig9", 0.5, "2cast_p90_ratio", "3cast_p99_ratio")
}

func BenchmarkFig10Comprehensive(b *testing.B) {
	benchExperiment(b, "fig10", 0.5,
		"dctcp_p99_slowdown", "dcqcn_p99_slowdown", "dctcp_throughput_gbps")
}

// --- Ablations (DESIGN.md's design-choice benchmarks) ---

func BenchmarkAblationQueuePlacement(b *testing.B) {
	benchExperiment(b, "ablate-queue", 1, "shared_misdelivery_pct")
}

func BenchmarkAblationRXTimer(b *testing.B) {
	benchExperiment(b, "ablate-rxtimer", 1,
		"rx-timer-off_conflict_pct", "rate_error_factor")
}

func BenchmarkAblationSCHEOverrun(b *testing.B) {
	benchExperiment(b, "ablate-overrun", 1, "loss_pct_3.0x")
}

func BenchmarkAblationScheduler(b *testing.B) {
	benchExperiment(b, "ablate-scheduler", 1, "fifo_speedup", "scan_gbps")
}

func BenchmarkAblationSlowPath(b *testing.B) {
	benchExperiment(b, "ablate-slowpath", 1, "fastpath_err", "slowpath_err")
}

// --- Extensions (beyond the paper's evaluation) ---

func BenchmarkExtHPCC(b *testing.B) {
	benchExperiment(b, "ext-hpcc", 1, "hpcc_mean_queue_pkts", "dctcp_mean_queue_pkts")
}

func BenchmarkExtPFC(b *testing.B) {
	benchExperiment(b, "ext-pfc", 1, "pfc_drops", "lossy_drops", "pfc_pauses")
}

func BenchmarkExtMultiPipe(b *testing.B) {
	benchExperiment(b, "ext-multipipe", 1, "device_tbps")
}

// --- whole-tester microbenchmark: simulation efficiency ---

func BenchmarkTesterPacketRate(b *testing.B) {
	tr, err := marlin.NewTester(marlin.TestConfig{Algorithm: "dctcp", Ports: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.StartFlow(0, 0, 1, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RunFor(10 * marlin.Microsecond)
	}
	b.StopTimer()
	pkts := tr.Registers().Switch.DataTx
	b.ReportMetric(float64(pkts)/float64(b.N), "DATApkts/op")
}

// benchShardFatTree times one fat-tree simulation at a given shard count:
// 12 cross-pod flows over fattree:4 (4 partitions, one per pod), advanced in
// 20 us windows of simulated time after a 100 us warm-up.
func benchShardFatTree(shards int) func(*testing.B) {
	return func(b *testing.B) {
		const ports = 12
		tr, err := marlin.NewTester(marlin.TestConfig{
			Algorithm:      "dctcp",
			Ports:          ports,
			AQM:            "ecn:k=65",
			Topology:       "fattree:4",
			Shards:         shards,
			DCQCNTimeScale: 30,
			Seed:           1,
		})
		if err != nil {
			b.Fatal(err)
		}
		for p := 0; p < ports; p++ {
			if err := tr.StartFlow(marlin.FlowID(p), p, (p+ports/2)%ports, 0); err != nil {
				b.Fatal(err)
			}
		}
		tr.RunFor(100 * marlin.Microsecond) // fill queues, warm wheel slots
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.RunFor(20 * marlin.Microsecond)
		}
	}
}

func BenchmarkShardFatTree(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards_%d", shards), benchShardFatTree(shards))
	}
}

func BenchmarkExtFPGAReceiver(b *testing.B) {
	benchExperiment(b, "ext-fpgarecv", 1, "fct_penalty_us")
}

func BenchmarkExtOpenLoop(b *testing.B) {
	benchExperiment(b, "ext-openloop", 0.5, "p99_at_90", "gbps_at_90")
}

func BenchmarkExtAlgoComparison(b *testing.B) {
	benchExperiment(b, "ext-algos", 1, "dctcp_queue_pkts", "hpcc_queue_pkts")
}

func BenchmarkAblationRXDemux(b *testing.B) {
	benchExperiment(b, "ablate-rxdemux", 1, "throughput_ratio")
}

func BenchmarkExtLeafSpine(b *testing.B) {
	benchExperiment(b, "ext-leafspine", 1, "dcqcn_ecmp_imbalance", "cubic_fct_p99_us")
}
