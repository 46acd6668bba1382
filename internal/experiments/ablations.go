package experiments

import (
	"fmt"

	"marlin/internal/cc"
	"marlin/internal/core"
	"marlin/internal/fpga"
	"marlin/internal/measure"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

func init() {
	register("ablate-queue", "per-egress-port vs shared register queue: misdelivery (§4.2)", AblateQueue)
	register("ablate-rxtimer", "RX timer on/off: RMW conflicts corrupt CC state (Challenge 3, §5.3)", AblateRXTimer)
	register("ablate-overrun", "SCHE pacing above the port DATA rate: false losses (Challenge 1, §4.2)", AblateOverrun)
	register("ablate-scheduler", "rescheduling FIFO vs cyclic scan under many flows (Challenge 2, §5.2)", AblateScheduler)
	register("ablate-slowpath", "DCTCP alpha precision: 32-bit Slow Path vs 16-bit fast path (§5.4)", AblateSlowPath)
}

func ablAlg(name string) cc.Algorithm {
	alg, err := cc.New(name)
	if err != nil {
		panic(err)
	}
	return alg
}

// AblateQueue compares the §4.2 per-egress-port register queues against a
// single shared queue. The shared design misdelivers: a TEMP slot on one
// port dequeues metadata destined for another, emitting the DATA packet on
// the wrong port.
func AblateQueue(opts Options) (*Result, error) {
	res := newResult("ablate-queue", "DATA misdelivery with per-port vs shared register queues",
		"design", "data_tx", "misdelivered", "misdelivery_pct")
	for _, shared := range []bool{false, true} {
		eng := sim.NewEngine()
		tr, err := core.New(eng, core.Config{
			Algorithm:   ablAlg("dctcp"),
			DataPorts:   12,
			SharedQueue: shared,
			Seed:        opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		// Asymmetric per-port SCHE rates expose the shared queue: six
		// flows run clean at line rate while six share one congested
		// destination and schedule far more slowly, so TEMP slots on the
		// fast ports grab the slow flows' metadata.
		for p := 0; p < 6; p++ {
			if err := tr.StartFlow(packet.FlowID(p), p, p, 0); err != nil {
				return nil, err
			}
		}
		for p := 6; p < 12; p++ {
			if err := tr.StartFlow(packet.FlowID(p), p, 6, 0); err != nil {
				return nil, err
			}
		}
		tr.Run(sim.Time(opts.scaleD(sim.Millisecond)))
		c := tr.PipelineCounters()
		pct := 0.0
		if c.DataTx > 0 {
			pct = 100 * float64(c.Misdelivered) / float64(c.DataTx)
		}
		name := "per-port"
		if shared {
			name = "shared"
		}
		res.AddRow(name, fmt.Sprintf("%d", c.DataTx), fmt.Sprintf("%d", c.Misdelivered), f2(pct))
		res.Metrics[name+"_misdelivery_pct"] = pct
	}
	res.Note("§4.2: \"a TEMP packet might accidentally dequeue metadata meant for a different port\"")
	return res, nil
}

// AblateRXTimer compares ingress pacing on/off under DPDK-style bursts of
// congestion notifications. With the RX timer off, INFO packets hit the
// DCQCN module faster than its RMW completes; conflicting updates are
// lost, so rate cuts are skipped and the flow keeps sending too fast —
// exactly §5.3's "incorrect execution of the CC algorithm".
func AblateRXTimer(opts Options) (*Result, error) {
	res := newResult("ablate-rxtimer", "RMW conflicts and resulting DCQCN rate with/without the RX timer",
		"design", "info_rx", "rmw_conflicts", "conflict_pct", "rate_after_bursts_gbps")
	horizon := opts.scaleD(200 * sim.Microsecond)
	var rates [2]float64
	for i, disable := range []bool{false, true} {
		eng := sim.NewEngine()
		alg := ablAlg("dcqcn")
		params := cc.DefaultParams(100*sim.Gbps, 1024)
		// Freeze recovery so only the CNP cuts matter in this window.
		params.RateTimer = sim.Second
		params.AlphaTimer = sim.Second
		nic, err := fpga.NewNIC(eng, fpga.Config{
			Ports:          1,
			MaxFlows:       16,
			Algorithm:      alg,
			Params:         params,
			TXTimerPPS:     11.97e6,
			DisableRXTimer: disable,
		})
		if err != nil {
			return nil, err
		}
		var lastRateMbps uint32
		nic.ConnectSche(netem.NodeFunc(func(p *packet.Packet) {}))
		if err := nic.TraceFlow(1); err != nil {
			return nil, err
		}
		if err := nic.StartFlow(1, 0, 0); err != nil {
			return nil, err
		}
		// DPDK-style burst: 8 back-to-back CNP notifications every 50 us.
		burst := sim.NewTicker(eng, sim.Micros(50), func() {
			for k := 0; k < 8; k++ {
				nic.InfoIn().Receive(&packet.Packet{
					Type: packet.INFO, Flow: 1,
					Flags: packet.FlagCNPNotify, Size: packet.ControlSize,
				})
			}
		})
		burst.Start()
		eng.Run(sim.Time(horizon))
		st := nic.Stats()
		pct := 0.0
		if st.InfoRx > 0 {
			pct = 100 * float64(st.RMWConflicts) / float64(st.InfoRx)
		}
		name := "rx-timer-on"
		if disable {
			name = "rx-timer-off"
		}
		if trace := nic.Logger().FlowTrace(1); len(trace) > 0 {
			lastRateMbps = trace[len(trace)-1].A
		}
		rates[i] = float64(lastRateMbps) / 1000
		res.AddRow(name, fmt.Sprintf("%d", st.InfoRx), fmt.Sprintf("%d", st.RMWConflicts), f2(pct), f2(rates[i]))
		res.Metrics[name+"_conflict_pct"] = pct
		res.Metrics[name+"_rate_gbps"] = rates[i]
	}
	res.Metrics["rate_error_factor"] = rates[1] / maxFloat(rates[0], 1e-9)
	res.Note("§5.3: lost CNP cuts leave the unpaced flow sending a multiple of the correct rate")
	return res, nil
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// AblateOverrun paces SCHE above the port's DATA rate, overflowing the
// switch register queues and producing false losses — the failure mode
// frequency control exists to prevent.
func AblateOverrun(opts Options) (*Result, error) {
	res := newResult("ablate-overrun", "false losses when SCHE pacing exceeds the port DATA rate",
		"tx_pps_factor", "sche_rx", "false_losses", "loss_pct")
	horizon := opts.scaleD(500 * sim.Microsecond)
	for _, factor := range []float64{1.0, 1.5, 3.0} {
		eng := sim.NewEngine()
		// A window-mode flow with a wide-open window emits one SCHE per
		// TX-timer slot, so the timer alone bounds the SCHE rate.
		params := cc.DefaultParams(100*sim.Gbps, 1024)
		params.InitCwnd = 30000
		params.Ssthresh = 60000
		tr, err := core.New(eng, core.Config{
			Algorithm:  ablAlg("reno"),
			Params:     params,
			DataPorts:  2,
			TXTimerPPS: 11.97e6 * factor,
			Seed:       opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		if err := tr.StartFlow(0, 0, 1, 0); err != nil {
			return nil, err
		}
		tr.Run(sim.Time(horizon))
		c := tr.PipelineCounters()
		pct := 0.0
		if c.ScheRx > 0 {
			pct = 100 * float64(c.ScheDrops) / float64(c.ScheRx)
		}
		res.AddRow(fmt.Sprintf("%.1fx", factor),
			fmt.Sprintf("%d", c.ScheRx), fmt.Sprintf("%d", c.ScheDrops), f2(pct))
		res.Metrics[fmt.Sprintf("loss_pct_%.1fx", factor)] = pct
	}
	res.Note("§4.2: \"queue overflow would lead to lost packets that should have been sent, which is unacceptable\"")
	return res, nil
}

// AblateScheduler compares the §5.2 rescheduling FIFO against the naive
// cyclic scan when most registered flows are idle: the scan exhausts its
// per-slot cycle budget before finding the schedulable flows and the port
// underutilizes.
func AblateScheduler(opts Options) (*Result, error) {
	res := newResult("ablate-scheduler", "port throughput: rescheduling FIFO vs cyclic scan, 2000 flows (8 active)",
		"scheduler", "throughput_gbps", "wasted_slots", "scan_giveups")
	horizon := opts.scaleD(2 * sim.Millisecond)
	const totalFlows, activeFlows = 2000, 8
	for _, mode := range []fpga.SchedulerMode{fpga.ReschedulingFIFO, fpga.CyclicScan} {
		eng := sim.NewEngine()
		tr, err := core.New(eng, core.Config{
			Algorithm: ablAlg("dctcp"),
			DataPorts: 2,
			Scheduler: mode,
			MaxFlows:  4096,
			Seed:      opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		// Many one-packet flows that finish immediately and stay idle in
		// the scan table, plus a few long-lived flows.
		for f := 0; f < totalFlows-activeFlows; f++ {
			if err := tr.StartFlow(packet.FlowID(f), 0, 1, 1); err != nil {
				return nil, err
			}
		}
		for f := totalFlows - activeFlows; f < totalFlows; f++ {
			if err := tr.StartFlow(packet.FlowID(f), 0, 1, 0); err != nil {
				return nil, err
			}
		}
		tr.Run(sim.Time(horizon))
		bits := float64(tr.PipelineCounters().DataTxBytes) * 8
		gbps := bits / horizon.Seconds() / 1e9
		st := tr.NICStats()
		res.AddRow(mode.String(), f2(gbps),
			fmt.Sprintf("%d", st.SchedWasted), fmt.Sprintf("%d", st.ScanGiveUps))
		res.Metrics[mode.String()+"_gbps"] = gbps
	}
	res.Metrics["fifo_speedup"] = res.Metrics["fifo_gbps"] / res.Metrics["scan_gbps"]
	res.Note("§5.2 / Challenge 2: scanning wastes cycles \"especially when there are numerous flows but only a few are schedulable\"")
	return res, nil
}

// AblateSlowPath compares DCTCP's alpha under the 32-bit Slow Path
// division against the 16-bit fast-path-only variant, at a low marking
// fraction where quantization bites: the 16-bit alpha deviates from the
// exact EWMA while the Slow Path tracks it.
func AblateSlowPath(opts Options) (*Result, error) {
	res := newResult("ablate-slowpath", "DCTCP alpha accuracy: 32-bit Slow Path vs 16-bit fast path",
		"variant", "alpha_mean", "alpha_err_vs_exact", "slowpath_runs")
	horizon := opts.scaleD(3 * sim.Millisecond)
	// Mark a thin slice of traffic so the marked fraction is small and
	// precision matters (F ~ 1/64).
	markEvery := uint32(64)

	type outcome struct {
		mean float64
		runs uint64
	}
	exactMean := 0.0
	run := func(useSlow bool, bits int) outcome {
		eng := sim.NewEngine()
		params := cc.DefaultParams(100*sim.Gbps, 1024)
		params.UseSlowPath = useSlow
		params.AlphaBits = bits
		params.InitCwnd = 64
		params.Ssthresh = 64
		tr, err := core.New(eng, core.Config{
			Algorithm: ablAlg("dctcp"),
			Params:    params,
			DataPorts: 2,
			Seed:      opts.Seed,
		})
		if err != nil {
			panic(err)
		}
		tr.ForwardLink(1).AddHook(func(p *packet.Packet) netem.HookAction {
			if p.Type == packet.DATA && p.PSN%markEvery == 0 {
				return netem.MarkCE
			}
			return netem.Pass
		})
		if err := tr.TraceFlow(0); err != nil {
			panic(err)
		}
		if err := tr.StartFlow(0, 0, 1, 0); err != nil {
			panic(err)
		}
		tr.Run(sim.Time(horizon))
		one := float64(uint32(1) << 10)
		if bits == 32 {
			one = float64(uint32(1) << 20)
		}
		var alphaSeries measure.Series
		for _, p := range tr.FlowTrace(0) {
			alphaSeries = append(alphaSeries, measure.Point{At: p.At, V: float64(p.B) / one})
		}
		warm := alphaSeries.After(sim.Time(horizon / 2))
		return outcome{mean: warm.Mean(), runs: tr.NICStats().SlowPathRuns}
	}

	slow := run(true, 32)
	fast := run(false, 16)
	// The exact steady-state EWMA fixed point is the marked fraction
	// itself (alpha* = F when every window has fraction F).
	exactMean = 1.0 / float64(markEvery)
	res.AddRow("slowpath-32bit", fmt.Sprintf("%.5f", slow.mean),
		fmt.Sprintf("%.5f", abs(slow.mean-exactMean)), fmt.Sprintf("%d", slow.runs))
	res.AddRow("fastpath-16bit", fmt.Sprintf("%.5f", fast.mean),
		fmt.Sprintf("%.5f", abs(fast.mean-exactMean)), fmt.Sprintf("%d", fast.runs))
	res.Metrics["slowpath_err"] = abs(slow.mean - exactMean)
	res.Metrics["fastpath_err"] = abs(fast.mean - exactMean)
	res.Metrics["exact_alpha"] = exactMean
	res.Metrics["slowpath_runs"] = float64(slow.runs)
	res.Note("§5.4: the Slow Path raises DCTCP's alpha division from 16-bit to 32-bit precision")
	return res, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
