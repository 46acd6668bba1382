package scenario

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"marlin/internal/cc"
	"marlin/internal/fleet"
	"marlin/internal/packet"
	"marlin/internal/sim"
	"marlin/internal/spec"
)

// Parse compiles a scenario script. Errors carry 1-based line numbers.
func Parse(src string) (*Scenario, error) {
	s := &Scenario{}
	s.Spec.Seed = defaultSeed
	sawRun := false
	for i, raw := range strings.Split(src, "\n") {
		line := i + 1
		text := strings.TrimSpace(raw)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		var err error
		switch fields[0] {
		case "set", "sweep":
			switch {
			case sawRun:
				err = fmt.Errorf("%s after run is not allowed", fields[0])
			case fields[0] == "set":
				err = s.parseSet(fields[1:])
			default:
				err = s.parseSweep(fields[1:])
			}
		case "at":
			err = s.parseAt(line, fields[1:])
		case "run":
			var d sim.Duration
			if len(fields) != 2 {
				err = fmt.Errorf("expected one duration")
			} else if d, err = spec.Duration(fields[1]); err == nil {
				sawRun = true
				s.Steps = append(s.Steps, Step{Line: line, Run: d})
			}
		case "expect":
			var e *Expectation
			e, err = parseExpect(fields[1:])
			if err == nil {
				s.Steps = append(s.Steps, Step{Line: line, Expect: e})
			}
		case "report":
			err = s.parseReport(fields[1:])
		default:
			err = fmt.Errorf("unknown directive %q", fields[0])
		}
		if err != nil {
			return nil, fmt.Errorf("scenario line %d: %w", line, err)
		}
	}
	if !sawRun {
		return nil, fmt.Errorf("scenario: no run directive")
	}
	// Engine.Run(until) fires events at until, so an action at the horizon
	// runs; one past it never would.
	horizon := s.Horizon()
	for _, a := range s.Actions {
		if a.At > horizon {
			return nil, fmt.Errorf("scenario line %d: at %s is past the last run (%s)", a.Line, spec.FormatDuration(a.At), spec.FormatDuration(horizon))
		}
	}
	return s, nil
}

// defaultSeed is the seed of a script that sets none.
const defaultSeed = 1

// Horizon is the simulated time the run directives advance the clock by.
func (s *Scenario) Horizon() sim.Duration {
	var h sim.Duration
	for _, st := range s.Steps {
		if st.Expect == nil {
			h += st.Run
		}
	}
	return h
}

// String prints the scenario in the syntax Parse reads: its settings in
// table order (a fault or pattern plan as one line), its sweep axes, then
// the timeline, the steps and the report line in their stored order.
// Parse(s.String()) equals s but for line numbers.
func (s *Scenario) String() string {
	var b strings.Builder
	for _, kv := range s.Spec.Settings() {
		fmt.Fprintf(&b, "set %s %s\n", kv.Key, kv.Value)
	}
	if s.Spec.Seed == 0 { // Settings omits a zero field; Parse would default it
		b.WriteString("set seed 0\n")
	}
	for _, ax := range s.Sweeps {
		fmt.Fprintf(&b, "sweep %s %s\n", ax.Key, strings.Join(ax.Values, ","))
	}
	for _, a := range s.Actions {
		fmt.Fprintf(&b, "at %s %s\n", spec.FormatDuration(a.At), a.operands())
	}
	for _, st := range s.Steps {
		if st.Expect == nil {
			fmt.Fprintf(&b, "run %s\n", spec.FormatDuration(st.Run))
		} else {
			fmt.Fprintf(&b, "expect %s\n", st.Expect)
		}
	}
	if len(s.Report) > 0 {
		fmt.Fprintf(&b, "report %s\n", strings.Join(s.Report, " "))
	}
	return b.String()
}

// operands prints the action after its time, as parseAt reads it.
func (a *Action) operands() string {
	switch a.Kind {
	case "start":
		start := fmt.Sprintf("start %d tx %d rx %d%s", a.Flow, a.Tx, a.Rx, a.sizeTail())
		if a.CC != "" {
			start += " cc " + a.CC
		}
		return start
	case "fanin":
		return "fanin" + a.sizeTail()
	case "stop":
		return fmt.Sprintf("stop %d", a.Flow)
	case "drop", "mark":
		psn := fmt.Sprintf("%d..%d", a.From, a.To)
		if a.Kind == "drop" && a.From == a.To {
			psn = fmt.Sprint(a.From)
		}
		return fmt.Sprintf("%s flow %d rx %d psn %s", a.Kind, a.Flow, a.Rx, psn)
	default: // flap
		return fmt.Sprintf("flap rx %d for %s", a.Rx, spec.FormatDuration(a.Flap))
	}
}

// sizeTail prints a start's or fanin's optional "size N|LO..HI" and
// "loop" operands, with a leading space.
func (a *Action) sizeTail() (tail string) {
	if a.SizeMax != 0 {
		tail = fmt.Sprintf(" size %d..%d", a.Size, a.SizeMax)
	} else if a.Size != 0 {
		tail = fmt.Sprintf(" size %d", a.Size)
	}
	if a.Loop {
		tail += " loop"
	}
	return tail
}

// String prints the expectation as parseExpect reads it.
func (e *Expectation) String() string {
	return fmt.Sprintf("%s %s %s", e.Metric, e.Op, strconv.FormatFloat(e.Value, 'f', -1, 64))
}

// parseSet handles "set KEY VALUE" for every key of controlplane.Spec's
// table (Spec.Set names them in its unknown-key error), plus the two
// accumulating clause forms, one clause per line:
//
//	set fault linkdown leaf0->spine1 at 2ms for 500us
//	set fault nicstall at 4ms for 100us
//	set pattern incast:period=5ms,fanin=8,victim=1,size=150
//	set pattern flood:peak=20G,victim=1,period=4ms,duty=0.25
//
// Each clause is appended to the faults / pattern plan so far and the whole
// plan re-validated (overlap rules included) by Set.
func (s *Scenario) parseSet(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("set needs KEY VALUE")
	}
	key, val := args[0], strings.Join(args[1:], " ")
	switch key {
	case "fault":
		return s.appendClause("faults", s.Spec.Faults, val, "set fault needs a clause (e.g. linkdown LINK at TIME for DUR)")
	case "pattern":
		return s.appendClause("pattern", s.Spec.Pattern, val, "set pattern needs a clause (e.g. incast:period=5ms,fanin=8,victim=1,size=150)")
	}
	if val == "" {
		return fmt.Errorf("set needs KEY VALUE")
	}
	return s.Spec.Set(key, val)
}

func (s *Scenario) appendClause(key, plan, clause, usage string) error {
	if clause == "" {
		return fmt.Errorf("%s", usage)
	}
	if plan != "" {
		clause = plan + "; " + clause
	}
	return s.Spec.Set(key, clause)
}

// parseAt handles:
//
//	at D start FLOW tx P rx P [size N|LO..HI] [loop] [cc NAME]
//	at D fanin [size N|LO..HI] [loop]
//	at D stop FLOW
//	at D drop flow FLOW rx P psn N (or psn A..B)
//	at D mark flow FLOW rx P psn A..B
//	at D flap rx P for DURATION
func (s *Scenario) parseAt(line int, args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("at needs a time and an action")
	}
	d, err := spec.Duration(args[0])
	if err != nil {
		return err
	}
	a := Action{At: d, Line: line, Kind: args[1]}
	rest := args[2:]
	switch a.Kind {
	case "start":
		// FLOW tx P rx P [size N|LO..HI] [loop] [cc NAME], each number a
		// 32-bit unsigned integer: a larger one is rejected, not truncated.
		if len(rest) < 5 || rest[1] != "tx" || rest[3] != "rx" {
			return fmt.Errorf("start: expected FLOW tx P rx P [size N|LO..HI] [loop] [cc NAME]")
		}
		names := [3]string{"value", "tx", "rx"}
		var v [3]uint32
		for i, tok := range [3]string{rest[0], rest[2], rest[4]} {
			n, err := strconv.ParseUint(tok, 10, 32)
			if err != nil {
				return fmt.Errorf("start: bad %s %q", names[i], tok)
			}
			v[i] = uint32(n)
		}
		a.Flow, a.Tx, a.Rx = packet.FlowID(v[0]), int(v[1]), int(v[2])
		tail := rest[5:]
		if n := len(tail); n >= 2 && tail[n-2] == "cc" {
			if _, err := cc.New(tail[n-1]); err != nil {
				return fmt.Errorf("start: %w", err)
			}
			a.CC, tail = tail[n-1], tail[:n-2]
		}
		err = a.parseSize(tail)
	case "fanin":
		err = a.parseSize(rest)
	case "stop":
		if len(rest) != 1 {
			return fmt.Errorf("stop needs a flow id")
		}
		n, err := strconv.ParseUint(rest[0], 10, 32)
		if err != nil {
			return fmt.Errorf("bad flow id %q", rest[0])
		}
		a.Flow = packet.FlowID(n)
	case "drop", "mark":
		// flow F rx P psn A..B; a drop may name a single PSN N.
		if len(rest) != 6 || rest[0] != "flow" || rest[2] != "rx" || rest[4] != "psn" {
			return fmt.Errorf("%s needs: flow F rx P psn A..B (a drop may name one psn N)", a.Kind)
		}
		psn := rest[5]
		if a.Kind == "drop" && !strings.Contains(psn, "..") {
			psn += ".." + psn
		}
		fl, err1 := strconv.ParseUint(rest[1], 10, 32)
		rx, err2 := strconv.Atoi(rest[3])
		lo, hi, err3 := parseRange(psn)
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("bad %s operands", a.Kind)
		}
		a.Flow, a.Rx, a.From, a.To = packet.FlowID(fl), rx, lo, hi
	case "flap":
		// rx P for D
		if len(rest) != 4 || rest[0] != "rx" || rest[2] != "for" {
			return fmt.Errorf("flap needs: rx P for DURATION")
		}
		rx, err1 := strconv.Atoi(rest[1])
		d, err2 := spec.Duration(rest[3])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad flap operands")
		}
		a.Rx = rx
		a.Flap = d
	default:
		return fmt.Errorf("unknown action %q", a.Kind)
	}
	s.Actions = append(s.Actions, a)
	return err
}

// parseSize reads the optional "[size N|LO..HI] [loop]" tail of a start or
// a fanin. A range draws each start's size uniformly from LO..HI, so it
// needs 1 <= LO < HI; loop restarts a completed flow, so it needs a size.
func (a *Action) parseSize(rest []string) error {
	if len(rest) >= 2 && rest[0] == "size" {
		n, err := strconv.ParseUint(rest[1], 10, 32)
		a.Size = uint32(n)
		if strings.Contains(rest[1], "..") {
			a.Size, a.SizeMax, err = parseRange(rest[1])
			if err == nil && (a.Size == 0 || a.Size == a.SizeMax) {
				err = fmt.Errorf("want 1 <= LO < HI")
			}
		}
		if err != nil {
			return fmt.Errorf("%s: bad size %q", a.Kind, rest[1])
		}
		rest = rest[2:]
	}
	if len(rest) > 0 && rest[0] == "loop" {
		if a.Size == 0 {
			return fmt.Errorf("%s: loop needs a size (an open-ended flow never completes)", a.Kind)
		}
		a.Loop, rest = true, rest[1:]
	}
	if len(rest) > 0 {
		return fmt.Errorf("%s: trailing tokens %v", a.Kind, rest)
	}
	return nil
}

func parseRange(s string) (lo, hi uint32, err error) {
	parts := strings.SplitN(s, "..", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad range %q", s)
	}
	a, err1 := strconv.ParseUint(parts[0], 10, 32)
	b, err2 := strconv.ParseUint(parts[1], 10, 32)
	if err1 != nil || err2 != nil || b < a {
		return 0, 0, fmt.Errorf("bad range %q", s)
	}
	return uint32(a), uint32(b), nil
}

// parseSweep handles "sweep KEY v1,v2,...", one grid axis over any
// configuration key. A value may hold spaces (a fault plan), and commas
// between its "k=v" parameters (fleet.ParseAxis joins them).
func (s *Scenario) parseSweep(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("sweep needs KEY v1,v2,...")
	}
	if slices.ContainsFunc(s.Sweeps, func(ax fleet.Axis) bool { return ax.Key == args[0] }) {
		return fmt.Errorf("sweep: %s is already swept", args[0])
	}
	ax, err := fleet.ParseAxis(args[0] + "=" + strings.Join(args[1:], " "))
	if err != nil {
		return err
	}
	s.Sweeps = append(s.Sweeps, ax)
	return nil
}

// parseReport handles "report METRIC...": registry metrics only, so a
// misspelt name fails before any point runs.
func (s *Scenario) parseReport(args []string) error {
	if len(s.Report) > 0 || len(args) == 0 {
		return fmt.Errorf("want one report line, naming at least one metric")
	}
	for len(args) > 0 {
		if _, ok := metrics[args[0]]; !ok {
			return fmt.Errorf("report: unknown metric %q", args[0])
		}
		m, n, err := parseMetric(args)
		if err != nil {
			return err
		}
		s.Report = append(s.Report, m)
		args = args[n:]
	}
	return nil
}

// parseMetric reads the metric at the front of fields, with its operand if
// the registry gives it one, as stored ("flow_gbps 3"), and the fields used.
func parseMetric(fields []string) (string, int, error) {
	op := metrics[fields[0]]
	if op != noOperand && len(fields) > 1 {
		if n, err := strconv.ParseUint(fields[1], 10, 32); err == nil {
			return fields[0] + " " + strconv.FormatUint(n, 10), 2, nil
		}
	}
	if op == needsOperand {
		return "", 0, fmt.Errorf("%s needs an operand: %s N", fields[0], fields[0])
	}
	return fields[0], 1, nil
}

// parseExpect handles "METRIC [N] OP VALUE"; N is the operand of the
// metrics that take one (flow_gbps FLOW, fault_ttr_us FAULT, ...).
func parseExpect(fields []string) (*Expectation, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("expect needs METRIC OP VALUE")
	}
	m, n, err := parseMetric(fields)
	if err != nil {
		return nil, err
	}
	if fields = fields[n:]; len(fields) != 2 {
		return nil, fmt.Errorf("expect needs METRIC OP VALUE")
	}
	e := &Expectation{Metric: m, Op: fields[0]}
	if ops[e.Op] == nil {
		return nil, fmt.Errorf("bad operator %q", fields[0])
	}
	if e.Value, err = strconv.ParseFloat(fields[1], 64); err != nil {
		return nil, fmt.Errorf("bad value %q", fields[1])
	}
	return e, nil
}
