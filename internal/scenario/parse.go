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
	s.spec.Seed = 1
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
				s.steps = append(s.steps, step{line: line, run: d})
			}
		case "expect":
			var e *expectation
			e, err = parseExpect(strings.Join(fields[1:], " "))
			if err == nil {
				s.steps = append(s.steps, step{line: line, expect: e})
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
	return s, nil
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
		return s.appendClause("faults", s.spec.Faults, val, "set fault needs a clause (e.g. linkdown LINK at TIME for DUR)")
	case "pattern":
		return s.appendClause("pattern", s.spec.Pattern, val, "set pattern needs a clause (e.g. incast:period=5ms,fanin=8,victim=1,size=150)")
	}
	if val == "" {
		return fmt.Errorf("set needs KEY VALUE")
	}
	return s.spec.Set(key, val)
}

func (s *Scenario) appendClause(key, plan, clause, usage string) error {
	if clause == "" {
		return fmt.Errorf("%s", usage)
	}
	if plan != "" {
		clause = plan + "; " + clause
	}
	return s.spec.Set(key, clause)
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
	a := action{at: d, line: line, kind: args[1]}
	rest := args[2:]
	switch a.kind {
	case "start":
		// FLOW tx P rx P [size N]
		kv, err := keyVals(rest, "start", []string{"", "tx", "rx"}, []string{"size"})
		if err != nil {
			return err
		}
		a.flow = packet.FlowID(kv[""])
		a.tx, a.rx = int(kv["tx"]), int(kv["rx"])
		a.size = kv["size"]
	case "stop":
		if len(rest) != 1 {
			return fmt.Errorf("stop needs a flow id")
		}
		n, err := strconv.ParseUint(rest[0], 10, 32)
		if err != nil {
			return fmt.Errorf("bad flow id %q", rest[0])
		}
		a.flow = packet.FlowID(n)
	case "drop":
		// flow F rx P psn N  |  flow F rx P psn A..B
		if len(rest) != 6 || rest[0] != "flow" || rest[2] != "rx" || rest[4] != "psn" {
			return fmt.Errorf("drop needs: flow F rx P psn N (or psn A..B)")
		}
		fl, err1 := strconv.ParseUint(rest[1], 10, 32)
		rx, err2 := strconv.Atoi(rest[3])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad drop operands")
		}
		a.flow = packet.FlowID(fl)
		a.rx = rx
		if strings.Contains(rest[5], "..") {
			lo, hi, err := parseRange(rest[5])
			if err != nil {
				return err
			}
			a.psnA, a.psnB = lo, hi
		} else {
			n, err := strconv.ParseUint(rest[5], 10, 32)
			if err != nil {
				return fmt.Errorf("bad psn %q", rest[5])
			}
			a.psnA, a.psnB = uint32(n), uint32(n)
		}
	case "mark":
		// flow F rx P psn A..B
		if len(rest) != 6 || rest[0] != "flow" || rest[2] != "rx" || rest[4] != "psn" {
			return fmt.Errorf("mark needs: flow F rx P psn A..B")
		}
		fl, err1 := strconv.ParseUint(rest[1], 10, 32)
		rx, err2 := strconv.Atoi(rest[3])
		lo, hi, err3 := parseRange(rest[5])
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("bad mark operands")
		}
		a.flow = packet.FlowID(fl)
		a.rx = rx
		a.psnA, a.psnB = lo, hi
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
		a.rx = rx
		a.flap = d
	default:
		return fmt.Errorf("unknown action %q", a.kind)
	}
	s.actions = append(s.actions, a)
	return nil
}

// keyVals parses "V k1 V1 k2 V2 ..." where keys[0] == "" means the first
// token is a bare value; optional keys may be omitted. Every value is a
// 32-bit unsigned integer; a larger one is rejected, not truncated.
func keyVals(tokens []string, verb string, keys, optional []string) (map[string]uint32, error) {
	out := make(map[string]uint32)
	i := 0
	for _, k := range keys {
		if k == "" {
			if i >= len(tokens) {
				return nil, fmt.Errorf("%s: missing value", verb)
			}
			v, err := strconv.ParseUint(tokens[i], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q", verb, tokens[i])
			}
			out[k] = uint32(v)
			i++
			continue
		}
		if i+1 >= len(tokens) || tokens[i] != k {
			return nil, fmt.Errorf("%s: expected %q", verb, k)
		}
		v, err := strconv.ParseUint(tokens[i+1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%s: bad %s %q", verb, k, tokens[i+1])
		}
		out[k] = uint32(v)
		i += 2
	}
	for _, k := range optional {
		if i+1 < len(tokens) && tokens[i] == k {
			v, err := strconv.ParseUint(tokens[i+1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("%s: bad %s %q", verb, k, tokens[i+1])
			}
			out[k] = uint32(v)
			i += 2
		}
	}
	if i != len(tokens) {
		return nil, fmt.Errorf("%s: trailing tokens %v", verb, tokens[i:])
	}
	return out, nil
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
func parseExpect(text string) (*expectation, error) {
	fields := strings.Fields(text)
	e := &expectation{raw: text}
	switch {
	case len(fields) == 4 && fields[0] == "flow_gbps":
		n, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad flow id %q", fields[1])
		}
		e.metric = "flow_gbps"
		e.flow = packet.FlowID(n)
		e.hasFlo = true
		fields = fields[2:]
	case len(fields) == 3:
		e.metric = fields[0]
		fields = fields[1:]
	default:
		return nil, fmt.Errorf("expect needs METRIC OP VALUE")
	}
	switch fields[0] {
	case "==", "!=", "<", "<=", ">", ">=":
		e.op = fields[0]
	default:
		return nil, fmt.Errorf("bad operator %q", fields[0])
	}
	v, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return nil, fmt.Errorf("bad value %q", fields[1])
	}
	e.value = v
	return e, nil
}
