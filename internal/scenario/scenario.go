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
// ==, !=, <, <=, >, >=. An "at" past the sum of the run directives is
// rejected: it could never fire.
//
// The package owns the syntax both ways. Parse returns the exported
// parsed form (Spec, Actions, Steps) and String prints it back; the two
// are inverse but for line numbers. Run is Start, which deploys the spec
// and schedules the timeline, followed by the step loop. The fuzzer's
// test cases are this parsed form, run through Start, and its repro
// scripts are String's output.
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

// Scenario is a parsed script: what Parse reads and String prints.
type Scenario struct {
	Spec    controlplane.Spec
	Actions []Action
	Steps   []Step
}

// Action is a timeline entry: at At, Kind (start, stop, drop, mark or
// flap) acts on the fields that kind's syntax names; the rest stay zero.
type Action struct {
	At       sim.Duration
	Line     int
	Kind     string
	Flow     packet.FlowID
	Tx, Rx   int
	Size     uint32
	From, To uint32 // PSN range of a drop or mark
	Flap     sim.Duration
}

// Step is a run directive (Expect nil: advance the clock by Run) or an
// expectation, executed in order.
type Step struct {
	Line   int
	Run    sim.Duration
	Expect *Expectation
}

// Expectation is one metric assertion. Flow is flow_gbps's operand.
type Expectation struct {
	Metric string
	Flow   packet.FlowID
	Op     string
	Value  float64
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

// Start deploys the scenario's tester on a fresh engine and schedules its
// timeline; the clock stays at zero until the caller runs the tester. The
// first start the tester refuses, when it fires, is stored in *refused
// with its script line.
func (s *Scenario) Start(refused *error) (*core.Tester, error) {
	eng := sim.NewEngine()
	tr, err := s.Spec.Deploy(eng)
	if err != nil {
		return nil, err
	}
	for _, a := range s.Actions {
		a := a
		eng.ScheduleAt(sim.Time(a.At), func() {
			switch a.Kind {
			case "start":
				if err := tr.StartFlow(a.Flow, a.Tx, a.Rx, a.Size); err != nil && *refused == nil {
					*refused = fmt.Errorf("scenario line %d: %w", a.Line, err)
				}
			case "stop":
				tr.StopFlow(a.Flow)
			case "drop":
				tr.ForwardLink(a.Rx).AddHook(netem.NewScript().DropRange(a.Flow, a.From, a.To).Hook)
			case "mark":
				tr.ForwardLink(a.Rx).AddHook(netem.NewScript().MarkRange(a.Flow, a.From, a.To).Hook)
			case "flap":
				// Blackout: pause the link toward rx, resume after the
				// flap duration. Queued packets wait; RTOs fire if the
				// outage exceeds them.
				link := tr.ForwardLink(a.Rx)
				link.Pause()
				eng.Schedule(a.Flap, link.Resume)
			}
		})
	}
	return tr, nil
}

// Run executes the scenario and evaluates its expectations. A start the
// tester refuses fails the run at the end of the step it falls in.
func (s *Scenario) Run() (*Report, error) {
	var refused error
	tr, err := s.Start(&refused)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	var elapsed sim.Duration
	for _, st := range s.Steps {
		if st.Expect == nil {
			elapsed += st.Run
			tr.Run(sim.Time(elapsed))
			if refused != nil {
				return nil, refused
			}
			continue
		}
		val, err := s.measure(tr, st.Expect, elapsed)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", st.Line, err)
		}
		rep.Checks = append(rep.Checks, CheckResult{
			Line:     st.Line,
			Text:     st.Expect.String(),
			Measured: val,
			Pass:     compare(val, st.Expect.Op, st.Expect.Value),
		})
	}
	rep.Elapsed = elapsed
	rep.Snapshot = controlplane.ReadRegisters(tr)
	return rep, nil
}

// measure evaluates one metric against the tester's registers.
func (s *Scenario) measure(tr *core.Tester, e *Expectation, elapsed sim.Duration) (float64, error) {
	snap := controlplane.ReadRegisters(tr)
	losses := controlplane.ReadLosses(tr)
	secs := elapsed.Seconds()
	switch e.Metric {
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
		return float64(tr.GoodputBits(e.Flow)) / secs / 1e9, nil
	case "jain":
		var rates []float64
		for _, f := range s.startedFlows() {
			rates = append(rates, float64(tr.GoodputBits(f)))
		}
		return measure.JainIndex(rates), nil
	case "fct_p50_us", "fct_p99_us":
		cdf := measure.NewCDF(tr.FCTs.FCTs())
		if cdf.Len() == 0 {
			return 0, fmt.Errorf("no completed flows for %s", e.Metric)
		}
		p := 0.5
		if e.Metric == "fct_p99_us" {
			p = 0.99
		}
		return cdf.Percentile(p), nil
	case "rtt_p50_us", "rtt_ewma_us":
		samples, count, ewma := tr.RTTSamples()
		if count == 0 {
			return 0, fmt.Errorf("no RTT probes for %s", e.Metric)
		}
		if e.Metric == "rtt_ewma_us" {
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
			return 0, fmt.Errorf("no AQM discipline installed for %s", e.Metric)
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
			return 0, fmt.Errorf("no fault plan installed for %s", e.Metric)
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
			return 0, fmt.Errorf("no pattern plan installed for %s", e.Metric)
		}
		switch e.Metric {
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
		return 0, fmt.Errorf("unknown metric %q", e.Metric)
	}
}

// startedFlows lists the distinct flows the timeline starts (for jain),
// sorted by flow ID. The order matters: the Jain index sums squared floats,
// and float addition is not associative, so iterating a map here would make
// the metric's low bits vary run to run for the same seed.
func (s *Scenario) startedFlows() []packet.FlowID {
	seen := make(map[packet.FlowID]bool)
	var out []packet.FlowID
	for _, a := range s.Actions {
		if a.Kind == "start" && !seen[a.Flow] {
			seen[a.Flow] = true
			out = append(out, a.Flow)
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
