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
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"marlin/internal/controlplane"
	"marlin/internal/sim"
	"marlin/internal/spec"
)

// Flow is one scripted finite flow.
type Flow struct {
	ID   int          `json:"id"`
	Tx   int          `json:"tx"`
	Rx   int          `json:"rx"`
	Size uint32       `json:"size"` // packets
	At   sim.Duration `json:"at"`
}

// Drop is one scripted loss burst: the flow's DATA packets with PSNs in
// [From, To] are dropped once on the path toward Rx.
type Drop struct {
	At   sim.Duration `json:"at"`
	Flow int          `json:"flow"`
	Rx   int          `json:"rx"`
	From uint32       `json:"from"`
	To   uint32       `json:"to"`
}

// Config is one generated test case. It is the unit the oracles check and
// the minimizer shrinks, and it renders losslessly to a scenario script.
type Config struct {
	Seed     uint64       `json:"seed"`
	Algo     string       `json:"algo"`
	Topology string       `json:"topology,omitempty"`
	Ports    int          `json:"ports"`
	ECNPkts  int          `json:"ecn,omitempty"`
	AQM      string       `json:"aqm,omitempty"`
	Fault    string       `json:"fault,omitempty"`
	Pattern  string       `json:"pattern,omitempty"`
	Shards   int          `json:"shards,omitempty"`
	INT      bool         `json:"int,omitempty"`
	Horizon  sim.Duration `json:"horizon"`
	Flows    []Flow       `json:"flows"`
	Drops    []Drop       `json:"drops,omitempty"`
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
	cfg := Config{Seed: campaignSeed + uint64(i)*0x9e3779b97f4a7c15}

	cfg.Topology = topologies[rng.Intn(len(topologies))]
	if cfg.Topology == "" {
		cfg.Ports = 2 + rng.Intn(5) // 2..6
	} else {
		cfg.Ports = topoPorts[cfg.Topology]
	}

	cfg.Algo = algos[rng.Intn(len(algos))]
	if cfg.Algo == "hpcc" {
		cfg.INT = true
	}

	// Marking policy: drop-tail, step ECN, or an AQM discipline (the
	// latter two are mutually exclusive by Validate).
	switch rng.Intn(10) {
	case 0, 1, 2:
		cfg.ECNPkts = 16 + rng.Intn(2)*49 // 16 or 65
	case 3, 4, 5:
		cfg.AQM = aqms[rng.Intn(len(aqms))]
	}

	if rng.Intn(4) == 0 { // fault plan
		links := faultLinks[cfg.Topology]
		link := links[rng.Intn(len(links))]
		at := sim.Millisecond + sim.Duration(rng.Intn(3))*sim.Millisecond
		dur := sim.Micros(float64(100 + rng.Intn(9)*100))
		switch rng.Intn(4) {
		case 0:
			cfg.Fault = fmt.Sprintf("linkdown %s at %s for %s", link, at, dur)
		case 1:
			cfg.Fault = fmt.Sprintf("lossburst %s at %s for %s prob 0.2 seed %d", link, at, dur, rng.Intn(100))
		case 2:
			cfg.Fault = fmt.Sprintf("brownout %s at %s for %s frac 0.5", link, at, dur)
		default:
			cfg.Fault = fmt.Sprintf("nicstall at %s for %s", at, dur)
		}
	}

	if rng.Intn(5) == 0 { // traffic pattern
		victim := rng.Intn(cfg.Ports)
		switch rng.Intn(3) {
		case 0:
			cfg.Pattern = fmt.Sprintf("incast:period=2ms,fanin=%d,victim=%d,size=50", 2+rng.Intn(3), victim)
		case 1:
			cfg.Pattern = fmt.Sprintf("flood:peak=20G,victim=%d,period=2ms,duty=0.5", victim)
		default:
			cfg.Pattern = fmt.Sprintf("square:period=1ms,duty=0.3,peak=10G,base=1G,victim=%d", victim)
		}
	}

	if cfg.Topology != "" && rng.Intn(3) == 0 {
		cfg.Shards = 2 + rng.Intn(3)
	}

	// Flows: 1..4, distinct IDs, tx != rx, sizes that finish well inside
	// the horizon on a healthy stack.
	n := 1 + rng.Intn(4)
	var lastStart sim.Duration
	for f := 0; f < n; f++ {
		tx := rng.Intn(cfg.Ports)
		rx := rng.Intn(cfg.Ports)
		if rx == tx {
			rx = (tx + 1) % cfg.Ports
		}
		at := sim.Duration(rng.Intn(5)) * 100 * sim.Microsecond
		if at > lastStart {
			lastStart = at
		}
		cfg.Flows = append(cfg.Flows, Flow{
			ID: f, Tx: tx, Rx: rx,
			Size: uint32(50 + rng.Intn(8)*50),
			At:   at,
		})
	}

	// Scripted loss bursts on up to two flows, placed after the flow has
	// started and within its PSN space.
	for d := rng.Intn(3); d > 0; d-- {
		fl := cfg.Flows[rng.Intn(len(cfg.Flows))]
		if fl.Size < 20 {
			continue
		}
		from := uint32(5 + rng.Intn(int(fl.Size/2)))
		span := uint32(rng.Intn(8))
		cfg.Drops = append(cfg.Drops, Drop{
			At:   fl.At + sim.Micros(float64(10+rng.Intn(200))),
			Flow: fl.ID,
			Rx:   fl.Rx,
			From: from,
			To:   from + span,
		})
	}

	cfg.Horizon = cfg.horizonFor(lastStart)
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
	if c.Fault != "" || c.Pattern != "" {
		h += 6 * sim.Millisecond
	}
	return h
}

// Spec converts the config to a deployable control-plane spec.
func (c *Config) Spec() controlplane.Spec {
	ecn := c.ECNPkts
	if c.AQM != "" {
		ecn = 0
	}
	return controlplane.Spec{
		Algorithm:        c.Algo,
		Ports:            c.Ports,
		ECNThresholdPkts: ecn,
		AQM:              c.AQM,
		Topology:         c.Topology,
		Faults:           c.Fault,
		Pattern:          c.Pattern,
		Shards:           c.Shards,
		EnableINT:        c.INT,
		DCQCNTimeScale:   30, // short-horizon convention (see EXPERIMENTS.md)
		Seed:             c.Seed,
	}
}

// Validate reports whether the config deploys cleanly and its timeline is
// self-consistent. The minimizer uses it to discard nonsense candidates.
func (c *Config) Validate() error {
	deploy := c.Spec()
	if err := deploy.Validate(); err != nil {
		return err
	}
	if len(c.Flows) == 0 && c.Pattern == "" {
		return fmt.Errorf("fuzzer: config drives no traffic")
	}
	seen := map[int]bool{}
	for _, f := range c.Flows {
		if seen[f.ID] {
			return fmt.Errorf("fuzzer: duplicate flow id %d", f.ID)
		}
		seen[f.ID] = true
		if f.Tx == f.Rx || f.Tx >= c.Ports || f.Rx >= c.Ports || f.Tx < 0 || f.Rx < 0 {
			return fmt.Errorf("fuzzer: flow %d has bad ports tx=%d rx=%d", f.ID, f.Tx, f.Rx)
		}
		if f.Size == 0 || f.At >= c.Horizon {
			return fmt.Errorf("fuzzer: flow %d is empty or starts past the horizon", f.ID)
		}
	}
	for _, d := range c.Drops {
		if !seen[d.Flow] || d.From > d.To {
			return fmt.Errorf("fuzzer: drop targets unknown flow %d or inverted range", d.Flow)
		}
	}
	return nil
}

// Render emits the config as a scenario script plus machine-readable
// header lines. The script replays under `marlinctl script` and the
// scenario regression runner; the header lets the fuzzer re-run the
// oracle that originally failed. The `set` lines are Spec()'s non-zero
// settings, so a knob Generate starts drawing reaches the script unaided.
func (c *Config) Render(oracle string) string {
	var b strings.Builder
	if oracle != "" {
		fmt.Fprintf(&b, "# fuzz: oracle=%s\n", oracle)
	}
	cj, _ := json.Marshal(c)
	fmt.Fprintf(&b, "# fuzz: config=%s\n", cj)
	deploy := c.Spec()
	for _, kv := range deploy.Settings() {
		fmt.Fprintf(&b, "set %s %s\n", kv.Key, kv.Value)
	}
	// Timeline in time order (stable by flow then range for ties) so the
	// script reads chronologically.
	type tl struct {
		at   sim.Duration
		key  int
		text string
	}
	var lines []tl
	for _, f := range c.Flows {
		lines = append(lines, tl{f.At, f.ID, fmt.Sprintf("at %s start %d tx %d rx %d size %d", spec.FormatDuration(f.At), f.ID, f.Tx, f.Rx, f.Size)})
	}
	for _, d := range c.Drops {
		psn := fmt.Sprintf("%d..%d", d.From, d.To)
		if d.From == d.To {
			psn = fmt.Sprintf("%d", d.From)
		}
		lines = append(lines, tl{d.At, 1 << 20, fmt.Sprintf("at %s drop flow %d rx %d psn %s", spec.FormatDuration(d.At), d.Flow, d.Rx, psn)})
	}
	sort.SliceStable(lines, func(i, j int) bool {
		if lines[i].at != lines[j].at {
			return lines[i].at < lines[j].at
		}
		return lines[i].key < lines[j].key
	})
	for _, l := range lines {
		b.WriteString(l.text)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "run %s\n", spec.FormatDuration(c.Horizon))
	b.WriteString("expect false_losses == 0\n")
	b.WriteString("expect misroutes == 0\n")
	if c.Fault == "" && c.Pattern == "" && len(c.Flows) > 0 {
		fmt.Fprintf(&b, "expect completions == %d\n", len(c.Flows))
	}
	return b.String()
}

// ParseRendered recovers the Config and oracle name from a rendered
// script (the `# fuzz:` header lines).
func ParseRendered(text string) (Config, string, error) {
	var cfg Config
	oracle := ""
	found := false
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if v, ok := strings.CutPrefix(line, "# fuzz: oracle="); ok {
			oracle = v
		}
		if v, ok := strings.CutPrefix(line, "# fuzz: config="); ok {
			if err := json.Unmarshal([]byte(v), &cfg); err != nil {
				return Config{}, "", fmt.Errorf("fuzzer: bad config header: %w", err)
			}
			found = true
		}
	}
	if !found {
		return Config{}, "", fmt.Errorf("fuzzer: no '# fuzz: config=' header")
	}
	return cfg, oracle, nil
}
