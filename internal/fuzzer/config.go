// Package fuzzer generates random-but-seeded Marlin test configurations,
// runs each one, and checks the results against global invariant oracles:
// packet conservation, pool-leak audits, byte-identical determinism across
// reruns and worker counts, wheel-vs-reference scheduler agreement, CC
// state-machine legality, and metamorphic relations (scaling all rates and
// times by k preserves dimensionless outputs; permuting flow IDs permutes
// per-flow outputs). A failing configuration is delta-debugged down to a
// minimal scenario script that reproduces the violation, suitable for
// checking into internal/scenario/testdata/regress/.
//
// Everything is a pure function of the campaign seed: the same seed
// produces the same configurations, the same verdicts, and byte-identical
// campaign output at any worker count.
package fuzzer

import (
	"fmt"
	"sort"
	"strings"

	"marlin/internal/packet"
	"marlin/internal/scenario"
	"marlin/internal/sim"
)

// Config is one generated test case: a scenario whose timeline starts
// finite flows and drops PSN ranges of them, and whose steps are one run
// to the horizon and the expectations every healthy run meets. It is the
// unit the oracles check and the minimizer shrinks, and it prints as the
// script that replays it.
type Config struct {
	scenario.Scenario
}

// algos weights window algorithms heavier: their integer arithmetic is
// where most historical bugs lived, and they qualify for more oracles.
var algos = []string{"reno", "reno", "cubic", "dctcp", "dctcp", "dcqcn", "timely", "swift", "hpcc"}

// topoPorts maps each generated topology to its port (host) count; "" is
// the canonical single-switch network.
var topoPorts = map[string]int{
	"":              0, // chosen per-config
	"dumbbell":      4,
	"parkinglot:3":  4,
	"leafspine:2x2": 4,
	"fattree:4":     8,
}

var topologies = []string{"", "", "", "dumbbell", "dumbbell", "parkinglot:3", "leafspine:2x2", "leafspine:2x2", "fattree:4"}

var aqms = []string{
	"red:min=30000,max=90000,maxp=0.02",
	"pie:target=20us,tupdate=25us",
	"codel:target=50us,interval=1ms",
	"pi2:target=20us",
	"dualpi2:step=10us",
}

// faultLinks names a real link for each topology (fabric naming scheme).
var faultLinks = map[string][]string{
	"":              {"fwd1", "tx0"},
	"dumbbell":      {"left->right"},
	"parkinglot:3":  {"hop0->hop1"},
	"leafspine:2x2": {"leaf0->spine1"},
	"fattree:4":     {"edge0->agg0"},
}

// Generate derives configuration index i of a campaign. It is a pure
// function of (campaignSeed, i).
func Generate(campaignSeed uint64, i int) Config {
	rng := sim.DeriveRand(campaignSeed, uint64(i), "fuzz.config")
	var cfg Config
	sp := &cfg.Spec
	sp.Seed = campaignSeed + uint64(i)*0x9e3779b97f4a7c15
	sp.DCQCNTimeScale = 30 // short-horizon convention (see EXPERIMENTS.md)

	sp.Topology = topologies[rng.Intn(len(topologies))]
	if sp.Topology == "" {
		sp.Ports = 2 + rng.Intn(5) // 2..6
	} else {
		sp.Ports = topoPorts[sp.Topology]
	}

	sp.Algorithm = algos[rng.Intn(len(algos))]
	if sp.Algorithm == "hpcc" {
		sp.EnableINT = true
	}

	// Marking policy: drop-tail, step ECN, or an AQM discipline.
	switch rng.Intn(10) {
	case 0, 1, 2:
		sp.AQM = fmt.Sprintf("ecn:k=%d", 16+rng.Intn(2)*49) // 16 or 65
	case 3, 4, 5:
		sp.AQM = aqms[rng.Intn(len(aqms))]
	}

	if rng.Intn(4) == 0 { // fault plan
		links := faultLinks[sp.Topology]
		link := links[rng.Intn(len(links))]
		at := sim.Millisecond + sim.Duration(rng.Intn(3))*sim.Millisecond
		dur := sim.Micros(float64(100 + rng.Intn(9)*100))
		switch rng.Intn(4) {
		case 0:
			sp.Faults = fmt.Sprintf("linkdown %s at %s for %s", link, at, dur)
		case 1:
			sp.Faults = fmt.Sprintf("lossburst %s at %s for %s prob 0.2 seed %d", link, at, dur, rng.Intn(100))
		case 2:
			sp.Faults = fmt.Sprintf("brownout %s at %s for %s frac 0.5", link, at, dur)
		default:
			sp.Faults = fmt.Sprintf("nicstall at %s for %s", at, dur)
		}
	}

	if rng.Intn(5) == 0 { // traffic pattern
		victim := rng.Intn(sp.Ports)
		switch rng.Intn(3) {
		case 0:
			sp.Pattern = fmt.Sprintf("incast:period=2ms,fanin=%d,victim=%d,size=50", 2+rng.Intn(3), victim)
		case 1:
			sp.Pattern = fmt.Sprintf("flood:peak=20G,victim=%d,period=2ms,duty=0.5", victim)
		default:
			sp.Pattern = fmt.Sprintf("square:period=1ms,duty=0.3,peak=10G,base=1G,victim=%d", victim)
		}
	}

	if sp.Topology != "" && rng.Intn(3) == 0 {
		sp.Shards = 2 + rng.Intn(3)
	}

	// Flows: 1..4, distinct IDs, tx != rx, sizes that finish well inside
	// the horizon on a healthy stack.
	n := 1 + rng.Intn(4)
	var lastStart sim.Duration
	for f := 0; f < n; f++ {
		tx := rng.Intn(sp.Ports)
		rx := rng.Intn(sp.Ports)
		if rx == tx {
			rx = (tx + 1) % sp.Ports
		}
		at := sim.Duration(rng.Intn(5)) * 100 * sim.Microsecond
		if at > lastStart {
			lastStart = at
		}
		cfg.Actions = append(cfg.Actions, scenario.Action{
			Kind: "start", Flow: packet.FlowID(f), Tx: tx, Rx: rx,
			Size: uint32(50 + rng.Intn(8)*50),
			At:   at,
		})
	}

	// Scripted loss bursts on up to two flows, placed after the flow has
	// started and within its PSN space.
	for d := rng.Intn(3); d > 0; d-- {
		fl := cfg.Actions[rng.Intn(n)]
		from := uint32(5 + rng.Intn(int(fl.Size/2)))
		span := uint32(rng.Intn(8))
		cfg.Actions = append(cfg.Actions, scenario.Action{
			Kind: "drop", Flow: fl.Flow, Rx: fl.Rx, From: from, To: from + span,
			At: fl.At + sim.Micros(float64(10+rng.Intn(200))),
		})
	}
	// The script reads chronologically; at one instant, starts (by flow
	// ID) fire before drops (in the order drawn).
	sort.SliceStable(cfg.Actions, func(i, j int) bool {
		a, b := cfg.Actions[i], cfg.Actions[j]
		return a.At < b.At || a.At == b.At && a.Kind == "start" && b.Kind == "drop"
	})

	cfg.finish(cfg.horizonFor(lastStart))
	return cfg
}

// horizonFor picks a horizon with enough headroom that every finite flow
// completes on a healthy stack even through its scripted drops — fast
// recovery costs ~1 RTT per burst, and a generous multi-millisecond slack
// absorbs slow-start and queueing. A stack that needs one RTO per lost
// packet (the historical stall) blows through this budget, which is what
// lets the liveness oracle catch it.
func (c *Config) horizonFor(lastStart sim.Duration) sim.Duration {
	h := lastStart + 6*sim.Millisecond
	if c.Spec.Faults != "" || c.Spec.Pattern != "" {
		h += 6 * sim.Millisecond
	}
	return h
}

// finish sets the case's steps: one run to horizon, then the expectations
// every healthy run of its traffic meets.
func (c *Config) finish(horizon sim.Duration) {
	expect := func(metric string, v float64) scenario.Step {
		return scenario.Step{Expect: &scenario.Expectation{Metric: metric, Op: "==", Value: v}}
	}
	c.Steps = []scenario.Step{{Run: horizon}, expect("false_losses", 0), expect("misroutes", 0)}
	if c.quietEligible() {
		c.Steps = append(c.Steps, expect("completions", float64(len(c.flows()))))
	}
}

// flows lists the case's flow starts by flow ID, the order Generate
// numbers them in.
func (c *Config) flows() []scenario.Action {
	var out []scenario.Action
	for _, a := range c.Actions {
		if a.Kind == "start" {
			out = append(out, a)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Flow < out[j].Flow })
	return out
}

// Validate reports whether the config deploys cleanly and its timeline is
// self-consistent. The minimizer uses it to discard nonsense candidates.
func (c *Config) Validate() error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	flows := c.flows()
	if len(flows) == 0 && c.Spec.Pattern == "" {
		return fmt.Errorf("fuzzer: config drives no traffic")
	}
	seen := map[packet.FlowID]bool{}
	for _, f := range flows {
		if seen[f.Flow] {
			return fmt.Errorf("fuzzer: duplicate flow id %d", f.Flow)
		}
		seen[f.Flow] = true
		if f.Tx == f.Rx || f.Tx >= c.Spec.Ports || f.Rx >= c.Spec.Ports || f.Tx < 0 || f.Rx < 0 {
			return fmt.Errorf("fuzzer: flow %d has bad ports tx=%d rx=%d", f.Flow, f.Tx, f.Rx)
		}
		if f.Size == 0 || f.At >= c.Horizon() {
			return fmt.Errorf("fuzzer: flow %d is empty or starts past the horizon", f.Flow)
		}
	}
	for _, d := range c.Actions {
		if d.Kind == "drop" && (!seen[d.Flow] || d.From > d.To) {
			return fmt.Errorf("fuzzer: drop targets unknown flow %d or inverted range", d.Flow)
		}
	}
	return nil
}

// Render prints the config as a scenario script, headed by the oracle it
// violated (if any) so the regress replay can re-run that oracle. The
// script replays under `marlinctl script` and the scenario regression
// runner, and ParseRendered reads it back to an equal config.
func (c *Config) Render(oracle string) string {
	if oracle == "" {
		return c.String()
	}
	return "# fuzz: oracle=" + oracle + "\n" + c.String()
}

// ParseRendered parses a rendered script back to its Config and the
// oracle its "# fuzz: oracle=" comment names.
func ParseRendered(text string) (Config, string, error) {
	s, err := scenario.Parse(text)
	if err != nil {
		return Config{}, "", err
	}
	oracle := ""
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(strings.TrimSpace(line), "# fuzz: oracle="); ok {
			oracle = v
		}
	}
	return Config{*s}, oracle, nil
}
