// Package scenario implements a packetdrill-style scripting language for
// the tester (the paper's related work, §2.2, places Marlin in the lineage
// of scriptable testers like packetdrill). A scenario is a small text
// program: configuration, a timeline of flow starts/stops and injected
// faults, run directives, and expectations evaluated against the
// control-plane registers.
//
//	# two DCTCP flows into one port, with a scripted loss
//	set algo dctcp
//	set ports 3
//	set ecn 65
//	set fault linkdown fwd2 at 2ms for 300us
//	at 0ms   start 0 tx 0 rx 2
//	at 0ms   start 1 tx 1 rx 2
//	at 1ms   drop flow 0 rx 2 psn 5000
//	run 8ms
//	expect false_losses == 0
//	expect jain >= 0.95
//	expect faults_recovered == 1
//	expect fault_ttr_us < 5000
//
// Durations use Go syntax (1ms, 250us). Lines starting with '#' are
// comments. Expectations compare a metric against a constant with one of
// ==, !=, <, <=, >, >=.
//
// "set KEY VALUE" takes every configuration key of controlplane.Spec's
// table (README "Configuration keys" and "marlinctl help" list them) with
// the parsers marlinctl's flags and sweep axes use. "set fault KIND ..."
// clauses (faults.ParseSpec syntax, one per line) build a deterministic
// time-domain fault plan; the faults_recovered and fault_ttr_us metrics
// read its recovery telemetry. "set pattern NAME:key=value,..." clauses
// (workload.ParseSpec syntax, likewise one per line) layer deterministic
// traffic patterns over the test; the burst_absorption, peak_queue_bytes,
// overload_us and bg_fct_inflation metrics read the victim port's overload
// telemetry. "set aqm NAME:key=value,..." (aqm.ParseSpec syntax) replaces
// drop-tail queues with red, pie, codel, pi2 or dualpi2; the ecn_mark_rate
// and sojourn_p99_us metrics read the marking rate and worst per-band p99
// queueing delay it produced. "set shards N" executes a topology scenario
// as a conservative parallel build on up to N worker cores; every metric
// is byte-identical for any N >= 1.
package scenario

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"marlin/internal/controlplane"
	"marlin/internal/core"
	"marlin/internal/measure"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

// Scenario is a parsed script.
type Scenario struct {
	spec    controlplane.Spec
	actions []action
	steps   []step
}

// action is a timeline entry.
type action struct {
	at   sim.Duration
	line int
	kind string // start, stop, drop, mark
	flow packet.FlowID
	tx   int
	rx   int
	size uint32
	psnA uint32
	psnB uint32
	flap sim.Duration
}

// step is a run or expect directive, executed in order.
type step struct {
	line   int
	run    sim.Duration // nonzero = advance the clock
	expect *expectation
}

// expectation is one metric assertion.
type expectation struct {
	metric string
	flow   packet.FlowID
	hasFlo bool
	op     string
	value  float64
	raw    string
}

// CheckResult is one evaluated expectation.
type CheckResult struct {
	Line     int
	Text     string
	Measured float64
	Pass     bool
}

// Report is the outcome of a scenario run.
type Report struct {
	Checks []CheckResult
	// Elapsed is the simulated time consumed by run directives.
	Elapsed sim.Duration
	// Snapshot is the final register readout.
	Snapshot controlplane.Snapshot
}

// Passed reports whether every expectation held.
func (r *Report) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Failures lists the failed checks.
func (r *Report) Failures() []CheckResult {
	var out []CheckResult
	for _, c := range r.Checks {
		if !c.Pass {
			out = append(out, c)
		}
	}
	return out
}

// Summary renders a human-readable result.
func (r *Report) Summary() string {
	var b strings.Builder
	for _, c := range r.Checks {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "%s  line %-3d %-40s (measured %.4g)\n", mark, c.Line, c.Text, c.Measured)
	}
	fmt.Fprintf(&b, "%d/%d checks passed over %v simulated\n",
		len(r.Checks)-len(r.Failures()), len(r.Checks), r.Elapsed)
	return b.String()
}

// Run executes the scenario and evaluates its expectations.
func (s *Scenario) Run() (*Report, error) {
	eng := sim.NewEngine()
	tr, err := s.spec.Deploy(eng)
	if err != nil {
		return nil, err
	}
	// Schedule timeline actions. A start the tester refuses fails the run
	// at the end of the step it falls in.
	var actionErr error
	for _, a := range s.actions {
		a := a
		eng.ScheduleAt(sim.Time(a.at), func() {
			switch a.kind {
			case "start":
				if err := tr.StartFlow(a.flow, a.tx, a.rx, a.size); err != nil && actionErr == nil {
					actionErr = fmt.Errorf("scenario line %d: %w", a.line, err)
				}
			case "stop":
				tr.StopFlow(a.flow)
			case "drop":
				tr.ForwardLink(a.rx).AddHook(netem.NewScript().DropRange(a.flow, a.psnA, a.psnB).Hook)
			case "mark":
				tr.ForwardLink(a.rx).AddHook(netem.NewScript().MarkRange(a.flow, a.psnA, a.psnB).Hook)
			case "flap":
				// Blackout: pause the link toward rx, resume after the
				// flap duration. Queued packets wait; RTOs fire if the
				// outage exceeds them.
				link := tr.ForwardLink(a.rx)
				link.Pause()
				eng.Schedule(a.flap, link.Resume)
			}
		})
	}

	rep := &Report{}
	var elapsed sim.Duration
	for _, st := range s.steps {
		if st.run > 0 {
			elapsed += st.run
			tr.Run(sim.Time(elapsed))
			if actionErr != nil {
				return nil, actionErr
			}
			continue
		}
		val, err := s.measure(tr, st.expect, elapsed)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", st.line, err)
		}
		rep.Checks = append(rep.Checks, CheckResult{
			Line:     st.line,
			Text:     st.expect.raw,
			Measured: val,
			Pass:     compare(val, st.expect.op, st.expect.value),
		})
	}
	rep.Elapsed = elapsed
	rep.Snapshot = controlplane.ReadRegisters(tr)
	return rep, nil
}

// measure evaluates one metric against the tester's registers.
func (s *Scenario) measure(tr *core.Tester, e *expectation, elapsed sim.Duration) (float64, error) {
	snap := controlplane.ReadRegisters(tr)
	losses := controlplane.ReadLosses(tr)
	secs := elapsed.Seconds()
	switch e.metric {
	case "completions":
		return float64(snap.FCTCount), nil
	case "false_losses":
		return float64(losses.FalseLosses), nil
	case "network_drops":
		return float64(losses.NetworkDrops), nil
	case "misroutes":
		return float64(losses.Misroutes), nil
	case "cnp_tx":
		return float64(snap.Switch.CnpTx), nil
	case "ooo_rx":
		return float64(snap.Switch.OutOfOrderRx), nil
	case "rtx":
		return float64(snap.NIC.RtxTx), nil
	case "total_gbps":
		if secs == 0 {
			return 0, nil
		}
		return float64(snap.Switch.DataTxBytes) * 8 / secs / 1e9, nil
	case "flow_gbps":
		if secs == 0 {
			return 0, nil
		}
		return float64(tr.GoodputBits(e.flow)) / secs / 1e9, nil
	case "jain":
		var rates []float64
		for _, f := range s.startedFlows() {
			rates = append(rates, float64(tr.GoodputBits(f)))
		}
		return measure.JainIndex(rates), nil
	case "fct_p50_us", "fct_p99_us":
		cdf := measure.NewCDF(tr.FCTs.FCTs())
		if cdf.Len() == 0 {
			return 0, fmt.Errorf("no completed flows for %s", e.metric)
		}
		p := 0.5
		if e.metric == "fct_p99_us" {
			p = 0.99
		}
		return cdf.Percentile(p), nil
	case "rtt_p50_us", "rtt_ewma_us":
		samples, count, ewma := tr.RTTSamples()
		if count == 0 {
			return 0, fmt.Errorf("no RTT probes for %s", e.metric)
		}
		if e.metric == "rtt_ewma_us" {
			return ewma, nil
		}
		return measure.NewCDF(samples).Percentile(0.5), nil
	case "ecn_mark_rate":
		// CE marks per forwarded packet across the tested network —
		// step-ECN and AQM marks both fold into the queues' ECNMarks.
		var marks, tx uint64
		for _, sw := range snap.Network {
			for _, ps := range sw.Ports {
				marks += ps.ECNMarks
				tx += ps.TxPackets
			}
		}
		if tx == 0 {
			return 0, nil
		}
		return float64(marks) / float64(tx), nil
	case "sojourn_p99_us":
		// Worst per-band p99 queueing delay over the AQM-managed ports.
		found := false
		worst := 0.0
		for _, sw := range snap.Network {
			for _, ps := range sw.Ports {
				if ps.AQM == nil {
					continue
				}
				found = true
				for _, v := range ps.AQM.SojournP99Us {
					if v > worst {
						worst = v
					}
				}
			}
		}
		if !found {
			return 0, fmt.Errorf("no AQM discipline installed for %s", e.metric)
		}
		return worst, nil
	case "faults_recovered":
		n := 0.0
		for _, r := range tr.FaultRecoveries() {
			if r.Recovered {
				n++
			}
		}
		return n, nil
	case "fault_ttr_us":
		// Worst time-to-recover across the plan; an unrecovered fault
		// measures +Inf so any upper-bound expectation fails loudly.
		rs := tr.FaultRecoveries()
		if len(rs) == 0 {
			return 0, fmt.Errorf("no fault plan installed for %s", e.metric)
		}
		worst := 0.0
		for _, r := range rs {
			if !r.Recovered {
				return math.Inf(1), nil
			}
			if us := float64(r.TimeToRecover) / float64(sim.Microsecond); us > worst {
				worst = us
			}
		}
		return worst, nil
	case "burst_absorption", "peak_queue_bytes", "overload_us", "bg_fct_inflation":
		if snap.Overload == nil {
			return 0, fmt.Errorf("no pattern plan installed for %s", e.metric)
		}
		switch e.metric {
		case "burst_absorption":
			return snap.Overload.BurstAbsorption, nil
		case "peak_queue_bytes":
			return float64(snap.Overload.PeakQueueBytes), nil
		case "overload_us":
			return snap.Overload.TimeInOverload.Microseconds(), nil
		default: // bg_fct_inflation
			// Background flows are the ones the timeline started — their
			// IDs sit below the pattern driver's flow base.
			var bg []measure.FCTRecord
			for _, rec := range tr.FCTs.Records() {
				if rec.Flow < tr.PatternDriver().FlowBase() {
					bg = append(bg, rec)
				}
			}
			return measure.FCTInflation(bg, snap.Overload.Windows), nil
		}
	default:
		return 0, fmt.Errorf("unknown metric %q", e.metric)
	}
}

// startedFlows lists the distinct flows the timeline starts (for jain),
// sorted by flow ID. The order matters: the Jain index sums squared floats,
// and float addition is not associative, so iterating a map here would make
// the metric's low bits vary run to run for the same seed.
func (s *Scenario) startedFlows() []packet.FlowID {
	seen := make(map[packet.FlowID]bool)
	var out []packet.FlowID
	for _, a := range s.actions {
		if a.kind == "start" && !seen[a.flow] {
			seen[a.flow] = true
			out = append(out, a.flow)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func compare(v float64, op string, want float64) bool {
	switch op {
	case "==":
		return v == want
	case "!=":
		return v != want
	case "<":
		return v < want
	case "<=":
		return v <= want
	case ">":
		return v > want
	case ">=":
		return v >= want
	}
	return false
}
