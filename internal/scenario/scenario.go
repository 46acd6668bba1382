// Package scenario implements a packetdrill-style scripting language for
// the tester (the paper's related work, §2.2, places Marlin in the lineage
// of scriptable testers like packetdrill). A scenario is a small text
// program: configuration, a timeline of flow starts/stops and injected
// faults, run directives, and expectations evaluated against the
// control-plane registers. Sweep lines make it a grid, the paper's R2 use
// case: one run per point, each reported as a table row.
//
//	# a DCTCP incast under a link flap, for two ECN thresholds
//	set algo dctcp
//	set ports 3
//	set fault linkdown fwd2 at 2ms for 300us
//	sweep ecn 20,65
//	at 0ms   start 0 tx 0 rx 2
//	at 0ms   start 1 tx 1 rx 2 size 50..500 loop
//	at 1ms   drop flow 0 rx 2 psn 5000
//	run 8ms
//	expect false_losses == 0
//	expect fault_ttr_us 0 < 5000
//	report total_gbps jain fct_p99_us
//
// Durations use Go syntax (1ms, 250us). Lines starting with '#' are
// comments. Expectations compare a metric against a constant with one of
// ==, !=, <, <=, >, >=. An "at" past the sum of the run directives is
// rejected: it could never fire. A start's size is a packet count (none:
// open-ended) or a uniform LO..HI draw from a stream seeded by the seed
// setting; loop restarts a flow, with a fresh draw, each time it
// completes; a trailing "cc NAME" runs the flow under that algorithm
// instead of the algo setting (it must share that algorithm's mode: a
// window and a rate module cannot share a NIC). "at D fanin" starts the
// flows setting's count of flows on every data port but the last, all
// into the last.
//
// The package owns the syntax both ways. Parse returns the exported
// parsed form and String prints it back; the two are inverse but for line
// numbers. Run is Start, which deploys the spec and schedules the
// timeline, followed by the step loop; with sweep lines, RunWith runs the
// points as fleet jobs. The fuzzer's test cases are this parsed form, run
// through Start, and its repro scripts are String's output.
//
// "set KEY VALUE" takes every configuration key of controlplane.Spec's
// table (README "Configuration keys" and "marlinctl help" list them) with
// the parsers marlinctl's flags use; "sweep KEY v1,v2,..." varies any of
// them, the first sweep line slowest; a "k=v" piece with no "NAME:"
// before it continues the value before it, so "sweep aqm
// pie:target=10us,tupdate=50us,codel" has two points. "set fault KIND
// ..." clauses (faults.ParseSpec syntax, one per line) build a
// time-domain fault plan, whose recovery the fault_* metrics read; "set
// pattern NAME:..." clauses (workload.ParseSpec syntax) layer traffic
// patterns over the test, whose victim-port overload telemetry the burst,
// overload and bg_* metrics read; "set aqm NAME:..." (aqm.ParseSpec
// syntax) replaces drop-tail queues, and ecn_mark_rate, sojourn_p99_us
// [BAND] (the worst p99 queueing delay of that band, or of any) and
// band_share BAND read what it did; on a fabric, ecmp_imbalance reads the
// busiest next hop's packets over the mean. "set shards N" runs a
// topology scenario as a conservative parallel build; every metric is
// byte-identical for any N >= 1.
package scenario

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"marlin/internal/aqm"
	"marlin/internal/controlplane"
	"marlin/internal/core"
	"marlin/internal/experiments"
	"marlin/internal/fabric"
	"marlin/internal/fleet"
	"marlin/internal/measure"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/sim"
	"marlin/internal/workload"
)

// Scenario is a parsed script: what Parse reads and String prints.
type Scenario struct {
	Spec    controlplane.Spec
	Sweeps  []fleet.Axis // in file order, the first slowest
	Actions []Action
	Steps   []Step
	Report  []string // metrics as written: "total_gbps", "flow_gbps 3"
}

// Action is a timeline entry: at At, Kind (start, fanin, stop, drop, mark
// or flap) acts on the fields that kind's syntax names; the rest stay zero.
type Action struct {
	At     sim.Duration
	Line   int
	Kind   string
	Flow   packet.FlowID
	Tx, Rx int
	// Size is a start's size in packets (0: open-ended) or, when SizeMax
	// is set, the low end of a uniform draw over Size..SizeMax.
	Size, SizeMax uint32
	// Loop restarts the flow, with a fresh draw, each time it completes.
	Loop bool
	// CC runs a start's flow under this algorithm instead of the deployed
	// one (core.StartFlowCC; "": the deployed one).
	CC       string
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

// Expectation is one metric assertion. Metric is written as in the script,
// with its operand if it takes one ("flow_gbps 3").
type Expectation struct {
	Metric string
	Op     string
	Value  float64
}

// CheckResult is one evaluated expectation. In a sweep, Text starts with
// the point (and replicate) it ran in: "ecn=8: jain >= 0.9".
type CheckResult struct {
	Line     int
	Text     string
	Measured float64
	Pass     bool
}

// Report is the outcome of a scenario run.
type Report struct {
	Checks []CheckResult
	// Elapsed is the simulated time consumed by run directives (by each
	// point's run, for a sweep).
	Elapsed sim.Duration
	// Snapshot is the final register readout; a sweep leaves it zero.
	Snapshot controlplane.Snapshot
	// Table has a row a point for the report line, or is nil.
	Table *experiments.Result
}

// Passed reports whether every expectation held.
func (r *Report) Passed() bool { return len(r.Failures()) == 0 }

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
	// Drawn sizes come from a stream of their own, seeded with the spec's
	// seed, in the order the starts fire; loops restarts a looping flow.
	rng := sim.NewRand(s.Spec.Seed)
	dists := make(map[*Action]*workload.SizeDist)
	loops := make(map[packet.FlowID]func())
	refuse := func(a *Action, err error) {
		if *refused == nil {
			*refused = fmt.Errorf("scenario line %d: %w", a.Line, err)
		}
	}
	var start func(a *Action, flow packet.FlowID, tx, rx int)
	start = func(a *Action, flow packet.FlowID, tx, rx int) {
		size := a.Size
		if d := dists[a]; d != nil {
			size = d.Sample(rng)
		}
		var err error
		if a.CC == "" {
			err = tr.StartFlow(flow, tx, rx, size)
		} else {
			err = tr.StartFlowCC(flow, tx, rx, size, a.CC)
		}
		if err != nil {
			refuse(a, err)
		}
		delete(loops, flow)
		if a.Loop {
			loops[flow] = func() { start(a, flow, tx, rx) }
		}
	}
	for i := range s.Actions {
		a := &s.Actions[i]
		if a.SizeMax != 0 {
			dists[a] = workload.Uniform(a.Size, a.SizeMax)
		}
		if a.Loop {
			tr.OnComplete(func(flow packet.FlowID, _ sim.Duration) {
				if restart := loops[flow]; restart != nil && *refused == nil {
					restart()
				}
			})
		}
		eng.ScheduleAt(sim.Time(a.At), func() {
			switch a.Kind {
			case "start":
				start(a, a.Flow, a.Tx, a.Rx)
			case "fanin":
				rx := tr.Plan().DataPorts - 1
				if rx < 1 {
					refuse(a, fmt.Errorf("fanin needs at least 2 data ports"))
					return
				}
				per := max(s.Spec.FlowsPerPort, 1)
				for id := 0; id < rx*per; id++ {
					start(a, packet.FlowID(id), id/per, rx)
				}
			case "stop":
				delete(loops, a.Flow)
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
// tester refuses fails the run at the end of the step it falls in. A
// script with sweep lines runs each point as a fleet job (see RunWith).
func (s *Scenario) Run() (*Report, error) {
	return s.RunWith(fleet.Options{}, 1)
}

// execute runs the scenario once: the steps in order, then the report
// line's metrics. Beside the report it returns those metrics' values (NaN
// where one has nothing to measure) followed by each check's measurement,
// and the completion times.
func (s *Scenario) execute() (*Report, []float64, []float64, error) {
	var refused error
	tr, err := s.Start(&refused)
	if err != nil {
		return nil, nil, nil, err
	}
	rep := &Report{}
	var elapsed sim.Duration
	for _, st := range s.Steps {
		if st.Expect == nil {
			elapsed += st.Run
			tr.Run(sim.Time(elapsed))
			if refused != nil {
				return nil, nil, nil, refused
			}
			continue
		}
		val, err := s.measure(tr, st.Expect.Metric, elapsed)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("line %d: %w", st.Line, err)
		}
		rep.Checks = append(rep.Checks, CheckResult{
			Line:     st.Line,
			Text:     st.Expect.String(),
			Measured: val,
			Pass:     ops[st.Expect.Op](val, st.Expect.Value),
		})
	}
	rep.Elapsed = elapsed
	rep.Snapshot = controlplane.ReadRegisters(tr)
	vals := make([]float64, len(s.Report), len(s.Report)+len(rep.Checks))
	for i, m := range s.Report {
		if vals[i], err = s.measure(tr, m, elapsed); err != nil {
			vals[i] = math.NaN()
		}
	}
	for _, c := range rep.Checks {
		vals = append(vals, c.Measured)
	}
	return rep, vals, tr.FCTs.FCTs(), nil
}

// operand is what follows a metric's name: nothing, a number (flow_gbps's
// flow ID, a fault_* metric's index in the plan) or, for fault_ttr_us, an
// optional one (without it, the plan's worst).
type operand int

const (
	noOperand operand = iota
	needsOperand
	mayOperand
)

// metrics is the registry of what measure reads: what expect compares and
// report prints.
var metrics = map[string]operand{
	"completions": noOperand, "false_losses": noOperand, "network_drops": noOperand, "drops": noOperand,
	"misroutes": noOperand, "cnp_tx": noOperand, "ooo_rx": noOperand, "rtx": noOperand, "jain": noOperand,
	"total_gbps": noOperand, "flow_gbps": needsOperand, "fct_p50_us": noOperand, "fct_p99_us": noOperand,
	"rtt_p50_us": noOperand, "rtt_ewma_us": noOperand, "ecn_mark_rate": noOperand, "sojourn_p99_us": mayOperand,
	"band_share": needsOperand, "ecmp_imbalance": noOperand,
	"faults_recovered": noOperand, "fault_ttr_us": mayOperand, "fault_pre_gbps": needsOperand,
	"fault_rtx": needsOperand, "fault_post_marks": needsOperand, "burst_absorption": noOperand,
	"peak_queue_bytes": noOperand, "peak_overshoot": noOperand, "overload_us": noOperand,
	"bg_fct_inflation": noOperand, "bg_completions": noOperand, "pattern_completions": noOperand,
	"flood_frames": noOperand,
}

// measure evaluates one metric, as written in the script, against the
// tester's registers.
func (s *Scenario) measure(tr *core.Tester, metric string, elapsed sim.Duration) (float64, error) {
	snap := controlplane.ReadRegisters(tr)
	losses := controlplane.ReadLosses(tr)
	secs := elapsed.Seconds()
	name, arg, hasArg := strings.Cut(metric, " ")
	n, _ := strconv.Atoi(arg) // parseMetric wrote it
	switch name {
	case "completions":
		return float64(snap.FCTCount), nil
	case "false_losses":
		return float64(losses.FalseLosses), nil
	case "network_drops":
		return float64(losses.NetworkDrops), nil
	case "drops": // congestion, carrier and injected losses
		return float64(losses.NetworkDrops + losses.DownDrops + losses.InjectedDrops), nil
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
		return float64(tr.GoodputBits(packet.FlowID(n))) / secs / 1e9, nil
	case "jain":
		var rates []float64
		for _, f := range s.startedFlows(tr.Plan().DataPorts) {
			rates = append(rates, float64(tr.GoodputBits(f)))
		}
		return measure.JainIndex(rates), nil
	case "fct_p50_us", "fct_p99_us":
		cdf := measure.NewCDF(tr.FCTs.FCTs())
		if cdf.Len() == 0 {
			return 0, fmt.Errorf("no completed flows for %s", name)
		}
		p := 0.5
		if name == "fct_p99_us" {
			p = 0.99
		}
		return cdf.Percentile(p), nil
	case "rtt_p50_us", "rtt_ewma_us":
		samples, count, ewma := tr.RTTSamples()
		if count == 0 {
			return 0, fmt.Errorf("no RTT probes for %s", name)
		}
		if name == "rtt_ewma_us" {
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
	case "sojourn_p99_us", "band_share":
		// Over the AQM-managed ports: the worst p99 queueing delay of a
		// band (without an operand, of any band), or the band's share of
		// the packets they delivered.
		if hasArg && n >= aqm.MaxBands {
			return 0, fmt.Errorf("%s: a queue has %d bands", metric, aqm.MaxBands)
		}
		found := false
		var worst float64
		var mine, all uint64
		for _, sw := range snap.Network {
			for _, ps := range sw.Ports {
				if ps.AQM == nil {
					continue
				}
				found = true
				for b, v := range ps.AQM.SojournP99Us {
					all += ps.AQM.BandDeqPackets[b]
					if !hasArg || b == n {
						worst = max(worst, v)
						mine += ps.AQM.BandDeqPackets[b]
					}
				}
			}
		}
		switch {
		case !found:
			return 0, fmt.Errorf("no AQM discipline installed for %s", name)
		case name == "sojourn_p99_us":
			return worst, nil
		case all == 0:
			return 0, nil
		}
		return float64(mine) / float64(all), nil
	case "ecmp_imbalance":
		paths := tr.ECMPPaths()
		if len(paths) == 0 {
			return 0, fmt.Errorf("no multipath fabric for %s", name)
		}
		return fabric.Imbalance(paths), nil
	case "faults_recovered":
		n := 0.0
		for _, r := range tr.FaultRecoveries() {
			if r.Recovered {
				n++
			}
		}
		return n, nil
	case "fault_ttr_us", "fault_pre_gbps", "fault_rtx", "fault_post_marks":
		// Without an operand, fault_ttr_us is the worst time-to-recover
		// across the plan. An unrecovered fault measures +Inf, so any
		// upper-bound expectation fails loudly.
		rs := tr.FaultRecoveries()
		if len(rs) == 0 {
			return 0, fmt.Errorf("no fault plan installed for %s", name)
		}
		if hasArg {
			if n >= len(rs) {
				return 0, fmt.Errorf("%s: the fault plan has %d faults", metric, len(rs))
			}
			rs = rs[n : n+1]
		}
		switch name {
		case "fault_pre_gbps":
			return rs[0].PreGbps, nil
		case "fault_rtx":
			return float64(rs[0].RtxDuring), nil
		case "fault_post_marks":
			return rs[0].PostMarkPerSec, nil
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
	case "burst_absorption", "peak_queue_bytes", "peak_overshoot", "overload_us",
		"bg_fct_inflation", "bg_completions", "pattern_completions", "flood_frames":
		ov := snap.Overload
		if ov == nil {
			return 0, fmt.Errorf("no pattern plan installed for %s", name)
		}
		// Background flows are the ones the timeline started: their IDs
		// sit below the pattern driver's flow base.
		var bg []measure.FCTRecord
		for _, rec := range tr.FCTs.Records() {
			if rec.Flow < tr.PatternDriver().FlowBase() {
				bg = append(bg, rec)
			}
		}
		switch name {
		case "burst_absorption":
			return ov.BurstAbsorption, nil
		case "peak_queue_bytes":
			return float64(ov.PeakQueueBytes), nil
		case "peak_overshoot":
			return ov.PeakOvershoot, nil
		case "overload_us":
			return ov.TimeInOverload.Microseconds(), nil
		case "bg_fct_inflation":
			return measure.FCTInflation(bg, ov.Windows), nil
		case "bg_completions":
			return float64(len(bg)), nil
		case "pattern_completions":
			return float64(snap.FCTCount - len(bg)), nil
		default: // flood_frames: every frame the victim port delivered or dropped
			return float64(ov.Delivered + ov.Dropped), nil
		}
	default:
		return 0, fmt.Errorf("unknown metric %q", name)
	}
}

// startedFlows lists the distinct flows the timeline starts (for jain),
// sorted by flow ID; a fanin's flows count from 0 over the ports-1
// senders. The order matters: the Jain index sums squared floats, and
// float addition is not associative, so iterating a map here would make
// the metric's low bits vary run to run for the same seed.
func (s *Scenario) startedFlows(ports int) []packet.FlowID {
	seen := make(map[packet.FlowID]bool)
	var out []packet.FlowID
	add := func(f packet.FlowID) {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	for _, a := range s.Actions {
		switch a.Kind {
		case "start":
			add(a.Flow)
		case "fanin":
			for f := 0; f < (ports-1)*max(s.Spec.FlowsPerPort, 1); f++ {
				add(packet.FlowID(f))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ops are the comparisons an expectation can make.
var ops = map[string]func(v, want float64) bool{
	"==": func(v, want float64) bool { return v == want },
	"!=": func(v, want float64) bool { return v != want },
	"<":  func(v, want float64) bool { return v < want },
	"<=": func(v, want float64) bool { return v <= want },
	">":  func(v, want float64) bool { return v > want },
	">=": func(v, want float64) bool { return v >= want },
}
