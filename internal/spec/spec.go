// Package spec holds the value parsers shared by Marlin's one-line spec
// languages (faults.ParseSpec, workload.ParseSpec) and by the configuration
// key table in internal/controlplane. Keeping the scalar parsing and its
// error wording here means "bad duration" reads the same whether the
// operator mistyped a fault window, a burst period, a scenario `set`, a
// sweep axis value or a marlinctl flag.
package spec

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"marlin/internal/sim"
)

// Duration parses a Go-syntax duration ("2ms", "500us") into sim time.
// Negative durations are rejected, and so are those past ≈ 106 days, which
// overflow sim time's picoseconds.
func Duration(val string) (sim.Duration, error) {
	d, err := time.ParseDuration(val)
	if err != nil || d < 0 || d > time.Duration(math.MaxInt64/sim.Nanosecond) {
		return 0, fmt.Errorf("bad duration %q", val)
	}
	return sim.FromStd(d), nil
}

// FormatDuration renders a duration in the largest integer unit Duration
// parses back exactly ("2ms", "500us", "1500ns"); sub-nanosecond
// remainders, which Duration cannot express, are truncated.
func FormatDuration(d sim.Duration) string {
	switch {
	case d%sim.Millisecond == 0:
		return fmt.Sprintf("%dms", int64(d/sim.Millisecond))
	case d%sim.Microsecond == 0:
		return fmt.Sprintf("%dus", int64(d/sim.Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d/sim.Nanosecond))
	}
}

// Bool parses a switch: "on"/"off" (the scenario spelling) or anything
// strconv.ParseBool takes ("true", "1", "f", ...); key names the parameter
// in the error.
func Bool(key, val string) (bool, error) {
	if val == "on" || val == "off" {
		return val == "on", nil
	}
	b, err := strconv.ParseBool(val)
	if err != nil {
		return false, fmt.Errorf("bad %s %q", key, val)
	}
	return b, nil
}

// Float parses a float-valued parameter; key names the parameter in the
// error ("bad frac \"x\"").
func Float(key, val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", key, val)
	}
	return f, nil
}

// Uint parses an unsigned integer parameter; key names the parameter in
// the error ("bad seed \"x\"").
func Uint(key, val string) (uint64, error) {
	n, err := strconv.ParseUint(val, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", key, val)
	}
	return n, nil
}

// Int parses a non-negative integer parameter; key names the parameter in
// the error.
func Int(key, val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s %q", key, val)
	}
	return n, nil
}

// Rate parses a data rate with a unit suffix: "40G", "2.5G", "500M",
// "1T", "800K", optionally ending in "bps" ("40Gbps"), or a bare
// bits-per-second integer. key names the parameter in the error.
func Rate(key, val string) (sim.Rate, error) {
	s := strings.TrimSuffix(val, "bps")
	mult := sim.Rate(1)
	if len(s) > 0 {
		switch s[len(s)-1] {
		case 'K', 'k':
			mult, s = sim.Kbps, s[:len(s)-1]
		case 'M', 'm':
			mult, s = sim.Mbps, s[:len(s)-1]
		case 'G', 'g':
			mult, s = sim.Gbps, s[:len(s)-1]
		case 'T', 't':
			mult, s = sim.Tbps, s[:len(s)-1]
		}
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || f < 0 {
		return 0, fmt.Errorf("bad %s %q", key, val)
	}
	return sim.Rate(f * float64(mult)), nil
}

// FormatRate renders a rate the way Rate parses it ("40G", "1.5M",
// "250bps"), so spec strings round-trip.
func FormatRate(r sim.Rate) string {
	for _, u := range []struct {
		mult   sim.Rate
		suffix string
	}{{sim.Tbps, "T"}, {sim.Gbps, "G"}, {sim.Mbps, "M"}, {sim.Kbps, "K"}} {
		if r >= u.mult {
			if r%u.mult == 0 {
				return fmt.Sprintf("%d%s", int64(r/u.mult), u.suffix)
			}
			return fmt.Sprintf("%g%s", float64(r)/float64(u.mult), u.suffix)
		}
	}
	return fmt.Sprintf("%dbps", int64(r))
}

// Pair is one key=value parameter of a spec entry.
type Pair struct {
	Key, Val string
}

// Pairs splits a comma-separated parameter body ("period=10ms,duty=0.2")
// into ordered key=value pairs, rejecting malformed and duplicate keys.
func Pairs(body string) ([]Pair, error) {
	var out []Pair
	seen := make(map[string]bool)
	for _, part := range strings.Split(body, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("empty parameter")
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("bad parameter %q (want key=value)", part)
		}
		if seen[k] {
			return nil, fmt.Errorf("duplicate key %q", k)
		}
		seen[k] = true
		out = append(out, Pair{Key: k, Val: v})
	}
	return out, nil
}
