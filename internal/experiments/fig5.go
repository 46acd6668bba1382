package experiments

import (
	"fmt"

	"marlin/internal/controlplane"
	"marlin/internal/measure"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/refcc"
	"marlin/internal/sim"
)

func init() {
	register("fig5", "CC-module correctness: DCTCP cwnd/alpha vs the ns-3-style reference (Figure 5)", Fig5)
}

// fig5Script builds the deterministic fault plan of §7.1: packet losses at
// points A and C and an ECN-marked burst at point B, expressed as PSNs so
// both stacks see the identical schedule.
func fig5Script() *netem.Script {
	return netem.NewScript().
		DropOnce(0, 400). // point A: early loss ends slow start
		// Point B: a CE episode spanning ~a dozen RTT windows so alpha
		// climbs toward the paper's Figure 5b level (~0.6) and decays
		// afterwards.
		MarkRange(0, 3000, 3350).
		DropOnce(0, 6000) // point C: later loss, second recovery
}

// Fig5 reproduces the CC-module correctness test: a single DCTCP flow with
// scripted loss/ECN events, traced at every parameter change on Marlin and
// on an independent host-style reference implementation standing in for
// ns-3 (see DESIGN.md for the substitution). The paper's claim is that the
// cwnd and alpha trajectories coincide.
func Fig5(opts Options) (*Result, error) {
	horizon := opts.scaleD(1500 * sim.Microsecond)

	// --- Marlin run ---
	eng := sim.NewEngine()
	spec := &controlplane.Spec{
		Algorithm: "dctcp",
		Ports:     2,
		Seed:      opts.Seed,
	}
	// §7.1: initial ssthresh 64, initial cwnd 1 (the defaults).
	tr, err := spec.Deploy(eng)
	if err != nil {
		return nil, err
	}
	tr.ForwardLink(1).AddHook(fig5Script().Hook)
	if err := tr.TraceFlow(0); err != nil {
		return nil, err
	}
	if err := tr.StartFlow(0, 0, 1, 0); err != nil {
		return nil, err
	}
	tr.Run(sim.Time(horizon))

	trace := tr.FlowTrace(0)
	if len(trace) == 0 {
		return nil, fmt.Errorf("fig5: Marlin produced no trace")
	}
	var mCwnd, mAlpha measure.StepTrace
	alphaOne := float64(uint32(1) << 20) // 32-bit slow-path alpha, Q20
	for _, p := range trace {
		mCwnd = append(mCwnd, measure.Point{At: p.At, V: float64(p.A)})
		mAlpha = append(mAlpha, measure.Point{At: p.At, V: float64(p.B) / alphaOne})
	}

	// --- ns-3-style reference run over an equivalent path ---
	eng2 := sim.NewEngine()
	var sender *refcc.DCTCPSender
	reverse := netem.NewLink(eng2, netem.LinkConfig{
		Rate: 100 * sim.Gbps, Delay: sim.Micros(4), QueueBytes: 1 << 20,
	}, netem.NodeFunc(func(p *packet.Packet) { sender.Receive(p) }))
	recv := refcc.NewReceiver(eng2, reverse)
	hop2 := netem.NewLink(eng2, netem.LinkConfig{
		Rate: 100 * sim.Gbps, Delay: sim.Micros(2), QueueBytes: 1 << 20,
	}, recv)
	hop2.AddHook(fig5Script().Hook)
	hop1 := netem.NewLink(eng2, netem.LinkConfig{
		Rate: 100 * sim.Gbps, Delay: sim.Micros(2), QueueBytes: 1 << 20,
	}, hop2)
	sender = refcc.NewDCTCPSender(eng2, refcc.DCTCPConfig{
		Flow: 0, MTU: 1024, LineRate: 100 * sim.Gbps,
		InitCwnd: 1, Ssthresh: 64,
	}, hop1)
	sender.Start()
	eng2.Run(sim.Time(horizon))

	rCwnd := measure.StepTrace(sender.CwndTrace)
	rAlpha := measure.StepTrace(sender.AlphaTrace)

	// --- compare and render ---
	grid := horizon / 300
	maxShift := opts.scaleD(60 * sim.Microsecond)
	shift, cwndCmp := measure.CompareStepTracesAligned(mCwnd, rCwnd, sim.Time(grid), sim.Time(horizon), grid, maxShift)
	_, alphaCmp := measure.CompareStepTracesAligned(mAlpha, rAlpha, sim.Time(grid), sim.Time(horizon), grid, maxShift)

	res := newResult("fig5", "DCTCP cwnd & alpha: Marlin vs reference (scripted loss at A/C, ECN at B)",
		"time_us", "marlin_cwnd", "ref_cwnd", "marlin_alpha", "ref_alpha")
	step := horizon / 30
	for t := sim.Time(0); t <= sim.Time(horizon); t = t.Add(step) {
		res.AddRow(
			f2(t.Microseconds()),
			f2(mCwnd.ValueAt(t)), f2(rCwnd.ValueAt(t)),
			fmt.Sprintf("%.4f", mAlpha.ValueAt(t)), fmt.Sprintf("%.4f", rAlpha.ValueAt(t)),
		)
	}
	res.Metrics["cwnd_norm_rmse"] = cwndCmp.NormRMSE()
	res.Metrics["align_shift_us"] = sim.Duration(shift).Microseconds()
	res.Metrics["cwnd_max_abs_dev_pkts"] = cwndCmp.MaxAbs
	res.Metrics["alpha_rmse"] = alphaCmp.RMSE
	res.Metrics["alpha_max_abs_dev"] = alphaCmp.MaxAbs
	res.Metrics["marlin_trace_points"] = float64(len(trace))
	res.Metrics["marlin_peak_cwnd"] = measure.Series(mCwnd).Max()
	res.Metrics["ref_peak_cwnd"] = measure.Series(rCwnd).Max()
	res.Metrics["marlin_peak_alpha"] = measure.Series(mAlpha).Max()
	res.Note("ns-3 replaced by an independent host-style DCTCP reference (float arithmetic); see DESIGN.md")
	res.Note("loss injected at PSN 400 (A) and 6000 (C); PSNs 3000-3350 CE-marked (B)")
	return res, nil
}
