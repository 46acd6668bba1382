package controlplane

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"marlin/internal/aqm"
	"marlin/internal/faults"
	"marlin/internal/sim"
	"marlin/internal/spec"
	"marlin/internal/workload"
)

// knob is one string-settable Spec field. The knobs table below is the only
// place that maps names to fields: scenario `set KEY VALUE`, sweep
// `-axis KEY=v1,v2`, the marlinctl flags and the fuzzer's repro scripts all
// go through Set, Settings and BindFlags, so a new knob is a Spec field, a
// row here and its line in compile. PortRate, Params and ECNThresholdPkts
// have no row (see DESIGN.md "Configuration surface") and stay API-only;
// Settings lists ECNThresholdPkts under ecn, the key that sets its value.
type knob struct {
	name, help string
	isBool     bool // a bare -name flag means "on"
	set        func(*Spec, string) error
	get        func(*Spec) string // "" while the field holds its zero value
}

var knobs = []knob{
	strKnob("algo", "CC algorithm (marlinctl list names them)", func(s *Spec) *string { return &s.Algorithm }, verbatim),
	intKnob("mtu", "DATA frame size in bytes (0 = 1024)", func(s *Spec) *int { return &s.MTU }),
	intKnob("ports", "data ports (0 = the device plan's maximum)", func(s *Spec) *int { return &s.Ports }),
	intKnob("flows", "flows per sender port", func(s *Spec) *int { return &s.FlowsPerPort }),
	strKnob("receiver", "receiver logic, tcp or roce (empty = the algorithm's own)", func(s *Spec) *string { return &s.Receiver }, verbatim),
	{name: "ecn", help: `step ECN at K packets, shorthand for aqm "ecn:k=K" (0 = no step ECN)`, set: setECN, get: getECN},
	newKnob("aqm", `marking policy of the tested network's queues: a discipline, e.g. "pi2" or "dualpi2:target=25us,tupdate=100us,step=50us", or step ECN "ecn:k=65" (empty = drop-tail)`, func(s *Spec) *string { return &s.AQM },
		stepCanonical, func(v string) string {
			if stepK(v) != "" {
				return "" // listed as ecn
			}
			return v
		}),
	intKnob("queue", "tested-network egress buffer in bytes (0 = 256 KiB)", func(s *Spec) *int { return &s.NetQueueBytes }),
	boolKnob("int", "stamp in-band telemetry at every hop (for hpcc)", func(s *Spec) *bool { return &s.EnableINT }),
	boolKnob("pfc", "lossless fabric via PFC pause frames", func(s *Spec) *bool { return &s.EnablePFC }),
	boolKnob("fpgarecv", "run receiver logic on the FPGA (reserved port)", func(s *Spec) *bool { return &s.ReceiverOnFPGA }),
	intKnob("hops", "extra store-and-forward hops on every forward path (single-switch network only)", func(s *Spec) *int { return &s.ExtraHops }),
	strKnob("topology", "tested-network fabric (dumbbell, leafspine:LxS, fattree:K, parkinglot:N; empty = single switch)", func(s *Spec) *string { return &s.Topology }, verbatim),
	newKnob("linkdelay", "tested-network per-link one-way delay, e.g. 500ns (0 = 2us)", func(s *Spec) *sim.Duration { return &s.LinkDelay },
		func(_, v string) (sim.Duration, error) { return spec.Duration(v) }, spec.FormatDuration),
	newKnob("dcqcnscale", "compress DCQCN's recovery timers by this factor for short horizons (1 = paper parameters)", func(s *Spec) *float64 { return &s.DCQCNTimeScale },
		spec.Float, func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }),
	strKnob("faults", `time-domain fault plan, e.g. "linkdown fwd1 at 2ms for 300us; nicstall at 4ms for 100us"`, func(s *Spec) *string { return &s.Faults }, compiled(faults.ParseSpec)),
	strKnob("pattern", `traffic-pattern plan, e.g. "incast:period=5ms,fanin=8,victim=1,size=150; flood:peak=20G,victim=1"`, func(s *Spec) *string { return &s.Pattern }, compiled(workload.ParseSpec)),
	intKnob("shards", "conservative parallel build on up to N worker cores (needs topology; 0 = one island on one engine; results byte-identical for any N >= 1)", func(s *Spec) *int { return &s.Shards }),
	newKnob("seed", "random seed", func(s *Spec) *uint64 { return &s.Seed },
		spec.Uint, func(n uint64) string { return strconv.FormatUint(n, 10) }),
}

// setECN is the ecn key, shorthand for the aqm value "ecn:k=N"; 0 clears
// step ECN but no other discipline. Both keys write AQM, so the later wins.
func setECN(s *Spec, v string) error {
	k, err := spec.Int("ecn", v)
	switch {
	case err != nil:
		return err
	case k > 0:
		s.AQM = aqm.Spec{Kind: aqm.KindECN, K: k}.String()
	case stepK(s.AQM) != "":
		s.AQM = ""
	}
	return nil
}

// getECN lists step ECN under ecn, whether AQM holds it or the Go-built
// spelling ECNThresholdPkts does (compile refuses the two together), so a
// spec printed as a script keeps its marking.
func getECN(s *Spec) string {
	if s.AQM == "" && s.ECNThresholdPkts > 0 {
		return strconv.Itoa(s.ECNThresholdPkts)
	}
	return stepK(s.AQM)
}

// stepCanonical takes an aqm value that compiles, writing step ECN in
// aqm.Spec's spelling "ecn:k=N", which Settings lists under ecn.
func stepCanonical(_, v string) (string, error) {
	a, err := aqm.ParseSpec(v)
	if a.Kind == aqm.KindECN {
		return a.String(), nil
	}
	return v, err
}

// stepK is the K of a step-ECN aqm value as the ecn key writes it, or ""
// for any other value.
func stepK(src string) string {
	if a, err := aqm.ParseSpec(src); err == nil && a.Kind == aqm.KindECN {
		return strconv.Itoa(a.K)
	}
	return ""
}

// newKnob builds a row from the field's parser (internal/spec's signature:
// the key names the value in the error) and the formatter that inverts it.
func newKnob[T comparable](name, help string, field func(*Spec) *T, parse func(key, val string) (T, error), format func(T) string) knob {
	return knob{name: name, help: help,
		set: func(s *Spec, v string) error {
			x, err := parse(name, v)
			if err == nil {
				*field(s) = x
			}
			return err
		},
		get: func(s *Spec) string {
			var zero T
			if *field(s) == zero {
				return ""
			}
			return format(*field(s))
		},
	}
}

func intKnob(name, help string, field func(*Spec) *int) knob {
	return newKnob(name, help, field, spec.Int, strconv.Itoa)
}

func boolKnob(name, help string, field func(*Spec) *bool) knob {
	k := newKnob(name, help, field, spec.Bool, func(bool) string { return "on" })
	k.isBool = true
	return k
}

func strKnob(name, help string, field func(*Spec) *string, parse func(key, val string) (string, error)) knob {
	return newKnob(name, help, field, parse, func(v string) string { return v })
}

// verbatim takes any string; Validate judges it.
func verbatim(_, v string) (string, error) { return v, nil }

// compiled takes a string one of the spec languages parses (or "", which
// clears the field), so a typo fails where it is written, not at deploy.
func compiled[T any](parseSpec func(string) (T, error)) func(key, val string) (string, error) {
	return func(_, v string) (string, error) {
		if v == "" {
			return v, nil
		}
		_, err := parseSpec(v)
		return v, err
	}
}

// Set assigns the field named key from its string form. Scalars use the
// internal/spec parsers (non-negative integers, Go-syntax durations,
// on/off or ParseBool switches) and keep their error wording; aqm, faults
// and pattern values must compile. Cross-field rules are Validate's.
func (s *Spec) Set(key, val string) error {
	for _, k := range knobs {
		if k.name == key {
			return k.set(s, val)
		}
	}
	names := make([]string, len(knobs))
	for i, k := range knobs {
		names[i] = k.name
	}
	return fmt.Errorf("controlplane: unknown setting %q (have %s)", key, strings.Join(names, " "))
}

// Setting is one key and its value in the form Set parses.
type Setting struct {
	Key, Value string
}

// Settings lists every field that differs from the zero Spec, in table
// order; applying the list to a zero Spec with Set reproduces s (the
// API-only fields aside, and step ECN, whether set as ECNThresholdPkts or
// as AQM, in its AQM spelling "ecn:k=N").
func (s *Spec) Settings() []Setting {
	var out []Setting
	for _, k := range knobs {
		if v := k.get(s); v != "" {
			out = append(out, Setting{k.name, v})
		}
	}
	return out
}

// BindFlags declares one -key flag per table row on fs, each writing into
// s the way Set does. Whatever s holds when BindFlags is called is the
// command's default and is shown as such in the flag's help.
func (s *Spec) BindFlags(fs *flag.FlagSet) {
	for _, k := range knobs {
		help := k.help
		if cur := k.get(s); cur != "" {
			help += " (default " + cur + ")"
		}
		set := func(v string) error { return k.set(s, v) }
		if k.isBool {
			fs.BoolFunc(k.name, help, set)
		} else {
			fs.Func(k.name, help, set)
		}
	}
}
