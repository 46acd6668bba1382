package scenario

import (
	"fmt"
	"strconv"
	"strings"

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
		case "set":
			if sawRun {
				err = fmt.Errorf("set after run is not allowed")
			} else {
				err = s.parseSet(fields[1:])
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
// table order (a fault or pattern plan as one line), then the timeline
// and the steps in their stored order. Parse(s.String()) equals s but for
// line numbers.
func (s *Scenario) String() string {
	var b strings.Builder
	for _, kv := range s.Spec.Settings() {
		fmt.Fprintf(&b, "set %s %s\n", kv.Key, kv.Value)
	}
	if s.Spec.Seed == 0 { // Settings omits a zero field; Parse would default it
		b.WriteString("set seed 0\n")
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
	return b.String()
}

// operands prints the action after its time, as parseAt reads it.
func (a *Action) operands() string {
	switch a.Kind {
	case "start":
		if a.Size == 0 {
			return fmt.Sprintf("start %d tx %d rx %d", a.Flow, a.Tx, a.Rx)
		}
		return fmt.Sprintf("start %d tx %d rx %d size %d", a.Flow, a.Tx, a.Rx, a.Size)
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

// String prints the expectation as parseExpect reads it.
func (e *Expectation) String() string {
	v := strconv.FormatFloat(e.Value, 'f', -1, 64)
	if e.Metric == "flow_gbps" {
		return fmt.Sprintf("flow_gbps %d %s %s", e.Flow, e.Op, v)
	}
	return fmt.Sprintf("%s %s %s", e.Metric, e.Op, v)
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
//	at D start FLOW tx P rx P [size N]
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
		// FLOW tx P rx P [size N], each a 32-bit unsigned integer: a larger
		// one is rejected, not truncated.
		if len(rest) < 5 || rest[1] != "tx" || rest[3] != "rx" {
			return fmt.Errorf("start: expected FLOW tx P rx P [size N]")
		}
		size := "0"
		if len(rest) == 7 && rest[5] == "size" {
			size = rest[6]
		} else if len(rest) != 5 {
			return fmt.Errorf("start: trailing tokens %v", rest[5:])
		}
		names := [4]string{"value", "tx", "rx", "size"}
		var v [4]uint32
		for i, tok := range [4]string{rest[0], rest[2], rest[4], size} {
			n, err := strconv.ParseUint(tok, 10, 32)
			if err != nil {
				return fmt.Errorf("start: bad %s %q", names[i], tok)
			}
			v[i] = uint32(n)
		}
		a.Flow, a.Tx, a.Rx, a.Size = packet.FlowID(v[0]), int(v[1]), int(v[2]), v[3]
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

// parseExpect handles "METRIC OP VALUE" and "flow_gbps FLOW OP VALUE".
func parseExpect(fields []string) (*Expectation, error) {
	e := &Expectation{}
	switch {
	case len(fields) == 4 && fields[0] == "flow_gbps":
		n, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad flow id %q", fields[1])
		}
		e.Metric = "flow_gbps"
		e.Flow = packet.FlowID(n)
		fields = fields[2:]
	case len(fields) == 3:
		e.Metric = fields[0]
		fields = fields[1:]
	default:
		return nil, fmt.Errorf("expect needs METRIC OP VALUE")
	}
	switch fields[0] {
	case "==", "!=", "<", "<=", ">", ">=":
		e.Op = fields[0]
	default:
		return nil, fmt.Errorf("bad operator %q", fields[0])
	}
	v, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return nil, fmt.Errorf("bad value %q", fields[1])
	}
	e.Value = v
	return e, nil
}
