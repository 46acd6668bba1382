package main

import (
	"fmt"

	"marlin/internal/controlplane"
	"marlin/internal/sim"
)

// workload is one set of inputs the benchmark runs. The load is closed loop
// by nature: a discrete-event simulation has no host-side arrival schedule,
// so the load is the fixed simulated horizon and the host takes as long as
// it takes. Every rep of one workload and seed is the same simulation.
type workload struct {
	name string
	// why is BENCHMARK.json's one-line reason (bench_test.go checks they
	// agree); README.md has the long form.
	why string
	// seeded says whether the simulation draws on the seed at all. The two
	// single-switch workloads do not: threshold marking, one path and
	// simultaneous flow starts leave nothing random, so every seed gives
	// the same digest there.
	seeded bool
	// steady and sweep are the two shapes a rep can take; exactly one is
	// set.
	steady *steady
	sweep  *sweep
}

// steady is a long-horizon test: deploy one tester, start unbounded flows,
// warm up, then time a measured window cut into fixed sim-time slices.
type steady struct {
	spec         controlplane.Spec // Seed is filled in per run
	flowsPerPort int
	txPorts      int
	rx           func(tx int) int
	warmup       sim.Duration
	slice        sim.Duration
	slices       int
	// checks are the workload's own output checks, on top of the common
	// ones every rep runs.
	checks func(r *rep, w *steady) []check
}

// sweep is a serial campaign of short complete tests: rounds x cells jobs,
// each deploying a fresh tester, running it briefly, reading every
// register, and dropping it.
type sweep struct {
	rounds   int
	algos    []string
	topos    []string
	horizon  sim.Duration
	template controlplane.Spec
	bgFlows  int
}

const (
	dualpi2  = "dualpi2:target=25us,tupdate=100us,step=50us"
	paperPPS = 11.97e6 // DATA packets per second per 100G port at MTU 1024 (paper §3.3)
)

// pick chooses between a workload's full size and its -quick size.
func pick[T any](quick bool, full, small T) T {
	if quick {
		return small
	}
	return full
}

func opposite(ports int) func(int) int {
	return func(tx int) int { return (tx + ports/2) % ports }
}

// workloads lists the four workloads. quick shrinks every horizon for the
// smoke test; the shapes, and so the layers exercised, stay the same.
func workloads(quick bool) []workload {
	// The fault must sit inside the measured window with the monitor's
	// 500 us look-back before it and room to recover after it.
	faultAt, faultFor := pick(quick, 2500*sim.Microsecond, 700*sim.Microsecond), pick(quick, 200*sim.Microsecond, 100*sim.Microsecond)
	incastEvery := pick(quick, sim.Millisecond, 300*sim.Microsecond)
	return []workload{
		{
			name: "line_rate_64k",
			why:  "paper headline: 12x100G at line rate over 65,532 dctcp flows, uncongested; fpga scheduler and flow store, cc, tofino and sim do the work",
			steady: &steady{
				spec:         controlplane.Spec{Algorithm: "dctcp", Ports: 12, ECNThresholdPkts: 65},
				flowsPerPort: 5461,
				txPorts:      12,
				rx:           opposite(12),
				warmup:       pick(quick, 2*sim.Millisecond, 200*sim.Microsecond),
				slice:        50 * sim.Microsecond,
				slices:       pick(quick, 80, 8),
				checks:       checkLineRate,
			},
		},
		{
			name: "fanin_dcqcn",
			why:  "same single-switch assembly, other regime: 16 rate-paced dcqcn flows into one port, standing marked queue, timer cancel/re-arm and a long horizon",
			steady: &steady{
				spec: controlplane.Spec{Algorithm: "dcqcn", Ports: 5, ECNThresholdPkts: 65,
					NetQueueBytes: 8 << 20, DCQCNTimeScale: 30},
				flowsPerPort: 4,
				txPorts:      4,
				rx:           func(int) int { return 4 },
				warmup:       pick(quick, 20*sim.Millisecond, 5*sim.Millisecond),
				slice:        pick(quick, 2*sim.Millisecond, sim.Millisecond),
				slices:       pick(quick, 50, 10),
				checks:       checkFanin,
			},
		},
		{
			name:   "fattree_shards2",
			seeded: true,
			why:    "only workload running fabric ECMP, shard rounds and mailboxes, DualPI2, a link fault and an incast pattern; the one that uses a second thread",
			steady: &steady{
				spec: controlplane.Spec{Algorithm: "dctcp", Ports: 12, Topology: "fattree:4", AQM: dualpi2,
					Faults:  fmt.Sprintf("linkdown edge0->agg0 at %dus for %dus", int(faultAt.Microseconds()), int(faultFor.Microseconds())),
					Pattern: fmt.Sprintf("incast:period=%dus,fanin=3,victim=1,size=80", int(incastEvery.Microseconds())), Shards: 2},
				flowsPerPort: 16,
				txPorts:      12,
				rx:           opposite(12),
				warmup:       pick(quick, 500*sim.Microsecond, 200*sim.Microsecond),
				slice:        100 * sim.Microsecond,
				slices:       pick(quick, 40, 9),
				checks:       checkFattree,
			},
		},
		{
			name:   "sweep_short",
			seeded: true,
			why:    "what sweeps, the fuzzer and experiments do: many 250us tests with finite flows, so deploy, workload, measure and flow churn dominate, not steady state",
			sweep: &sweep{
				rounds:  pick(quick, 4, 1),
				algos:   []string{"dctcp", "dcqcn", "cubic", "reno"},
				topos:   []string{"", "dumbbell", "leafspine:4x2", "fattree:4"},
				horizon: 250 * sim.Microsecond,
				template: controlplane.Spec{Ports: 8, ECNThresholdPkts: 65, DCQCNTimeScale: 30,
					Pattern: "lognormal:rate=60G,sigma=1; incast:period=200us,fanin=4,victim=7,size=32"},
				bgFlows: 4,
			},
		},
	}
}

// cellSpec is the test description of one sweep cell.
func (s *sweep) cellSpec(cell int, seed uint64) controlplane.Spec {
	spec := s.template
	spec.Algorithm = s.algos[cell/len(s.topos)]
	spec.Topology = s.topos[cell%len(s.topos)]
	if spec.Algorithm == "dcqcn" {
		spec.NetQueueBytes = 8 << 20
	}
	spec.Seed = seed
	return spec
}

func (s *sweep) cells() int { return len(s.algos) * len(s.topos) }

// check is one output check; each counts as one attempted operation.
type check struct {
	name   string
	ok     bool
	detail string
}

func checkf(name string, ok bool, format string, args ...any) check {
	return check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)}
}

// commonChecks hold for every tester the benchmark reads out: the tester
// itself loses nothing (§4.2), and every SCHE the switch accepted became
// exactly one DATA packet or still waits in a register queue.
func commonChecks(snap controlplane.Snapshot, losses controlplane.LossReport) []check {
	queued := uint64(0)
	for _, p := range snap.Ports {
		queued += uint64(p.QueueLen)
	}
	sw := snap.Switch
	return []check{
		checkf("false_losses", losses.FalseLosses == 0, "%d", losses.FalseLosses),
		checkf("rx_drops", losses.RXDrops == 0, "%d", losses.RXDrops),
		checkf("misroutes", losses.Misroutes == 0, "%d", losses.Misroutes),
		checkf("sche_conservation", sw.DataTx+queued == sw.ScheRx-sw.ScheDrops,
			"DataTx %d + queued %d vs ScheRx %d - ScheDrops %d", sw.DataTx, queued, sw.ScheRx, sw.ScheDrops),
	}
}

func checkLineRate(r *rep, w *steady) []check {
	pps := ratio(float64(r.delta[cDataTx]), r.simWindow.Seconds())
	want := float64(w.txPorts) * r.planPPS
	return []check{
		checkf("line_rate", pps >= want*0.995 && pps <= want*1.005 && r.planPPS > paperPPS*0.995 && r.planPPS < paperPPS*1.005,
			"%.4g pps simulated, plan %.4g, paper %.4g", pps, want, float64(w.txPorts)*paperPPS),
		checkf("network_drops", r.losses.NetworkDrops == 0, "%d", r.losses.NetworkDrops),
	}
}

func checkFanin(r *rep, w *steady) []check {
	goodput := ratio(float64(r.delta[cDeliveredBytes])*8, r.simWindow.Seconds())
	line := float64(100 * sim.Gbps)
	return []check{
		checkf("network_drops", r.losses.NetworkDrops == 0, "%d", r.losses.NetworkDrops),
		checkf("bottleneck_goodput", goodput >= 0.6*line, "%.1f%% of line rate", 100*goodput/line),
	}
}

func checkFattree(r *rep, w *steady) []check {
	return []check{
		checkf("completions", r.snap.FCTCount >= 1, "%d", r.snap.FCTCount),
		checkf("down_drops", r.losses.DownDrops > 0, "%d", r.losses.DownDrops),
		checkf("fault_recovered", r.faultsOK == len(r.snap.Faults) && r.faultsOK > 0, "%d of %d", r.faultsOK, len(r.snap.Faults)),
		checkf("shard_rounds", r.total[cShardRounds] > 0, "%d", r.total[cShardRounds]),
		checkf("shard_carried", r.total[cShardCarried] > 0, "%d", r.total[cShardCarried]),
	}
}
