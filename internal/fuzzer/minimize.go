package fuzzer

import (
	"slices"

	"marlin/internal/packet"
	"marlin/internal/scenario"
	"marlin/internal/sim"
)

// Minimize shrinks a violating config while preserving the named oracle's
// failure: greedy delta-debugging to a fixpoint over the config's
// dimensions, largest hammer first (drop whole subsystems, then simplify
// the topology, then shrink the timeline). Every accepted candidate still
// fails the oracle, so the result is a true repro, typically a handful of
// scenario lines. Runs serially; budget is bounded by the config's small
// dimension count times the per-run cost.
func Minimize(cfg Config, oracle string) Config {
	fails := func(c Config) bool {
		if c.Validate() != nil {
			return false
		}
		v, err := CheckOne(c, oracle)
		return err == nil && v != nil
	}
	if !fails(cfg) {
		return cfg // not reproducible under CheckOne; nothing to shrink
	}
	try := func(c Config) bool {
		c.finish(c.Horizon())
		if fails(c) {
			cfg = c
			return true
		}
		return false
	}

	for changed := true; changed; {
		changed = false

		// Whole-subsystem removals: the traffic pattern, the fault plan and
		// the marking policy.
		for _, field := range []func(*Config) *string{
			func(c *Config) *string { return &c.Spec.Pattern },
			func(c *Config) *string { return &c.Spec.Faults },
			func(c *Config) *string { return &c.Spec.AQM },
		} {
			if c := cfg; *field(&c) != "" {
				*field(&c) = ""
				changed = try(c) || changed
			}
		}
		if cfg.Spec.Shards != 0 && oracle != OracleShardEquiv {
			c := cfg
			c.Spec.Shards = 0
			changed = try(c) || changed
		}

		// Topology ladder. Fault link names and port counts are
		// topology-specific, so only descend once the fault is gone and
		// remap out-of-range flows away.
		if cfg.Spec.Topology != "" && cfg.Spec.Faults == "" {
			for _, next := range topoLadder(cfg.Spec.Topology, oracle) {
				c := cfg
				c.Spec.Topology = next
				c.Spec.Ports = topoPorts[next]
				if next == "" {
					c.Spec.Ports = 4
					c.Spec.Shards = 0
				}
				c.Actions = clamp(cfg.Actions, c.Spec.Ports)
				if try(c) {
					changed = true
					break
				}
			}
		}

		// Timeline shrinking: fewer flows, fewer drops, narrower drop
		// ranges, smaller transfers, shorter horizon.
		for _, f := range cfg.flows() {
			c := cfg
			c.Actions = clamp(resized(cfg.Actions, f.Flow, 0), c.Spec.Ports)
			if try(c) {
				changed = true
				break
			}
		}
		for i, d := range cfg.Actions {
			if d.Kind != "drop" {
				continue
			}
			c := cfg
			c.Actions = slices.Delete(slices.Clone(cfg.Actions), i, i+1)
			if try(c) {
				changed = true
				break
			}
		}
		for i, d := range cfg.Actions {
			if d.Kind == "drop" && d.To > d.From {
				c := cfg
				c.Actions = slices.Clone(cfg.Actions)
				c.Actions[i].To = d.From + (d.To-d.From)/2
				changed = try(c) || changed
			}
		}
		for _, f := range cfg.flows() {
			if f.Size > 40 {
				c := cfg
				c.Actions = clamp(resized(cfg.Actions, f.Flow, f.Size/2), c.Spec.Ports)
				changed = try(c) || changed
			}
		}
		// The liveness oracle is only sound while the generator's headroom
		// guarantee holds (quiet flows complete comfortably before the
		// horizon), so its repros keep the full headroom: shrinking the
		// horizon further would make "did not complete" fire for lack of
		// time rather than for the bug being reproduced.
		floor := 2 * sim.Millisecond
		if oracle == OracleLiveness {
			var latest sim.Duration
			for _, f := range cfg.flows() {
				if f.At > latest {
					latest = f.At
				}
			}
			floor = latest + 5*sim.Millisecond
		}
		if cfg.Horizon()/2 >= floor {
			c := cfg
			c.finish(cfg.Horizon() / 2)
			changed = try(c) || changed
		}
	}
	return cfg
}

// topoLadder lists simpler topologies to try, in order. The shardequiv
// oracle needs a multi-switch fabric, so its ladder stops at dumbbell.
func topoLadder(from, oracle string) []string {
	ladder := []string{"dumbbell"}
	if from == "dumbbell" {
		ladder = nil
	}
	if oracle != OracleShardEquiv {
		ladder = append(ladder, "")
	}
	return ladder
}

// resized is a copy of actions with flow's start resized to size packets.
func resized(actions []scenario.Action, flow packet.FlowID, size uint32) []scenario.Action {
	out := slices.Clone(actions)
	for i := range out {
		if out[i].Kind == "start" && out[i].Flow == flow {
			out[i].Size = size
		}
	}
	return out
}

// clamp keeps the flow starts that carry packets and fit the port count,
// and the drops whose flow still starts, retargeted to the flow's (possibly
// updated) rx port and PSN space.
func clamp(actions []scenario.Action, ports int) []scenario.Action {
	starts := map[packet.FlowID]scenario.Action{}
	for _, a := range actions {
		if a.Kind == "start" && a.Size > 0 && a.Tx < ports && a.Rx < ports && a.Tx != a.Rx {
			starts[a.Flow] = a
		}
	}
	var out []scenario.Action
	for _, a := range actions {
		f, ok := starts[a.Flow]
		if !ok {
			continue
		}
		if a.Kind == "drop" {
			if a.From >= f.Size {
				continue
			}
			a.Rx = f.Rx
			a.To = min(a.To, f.Size-1)
		}
		out = append(out, a)
	}
	return out
}
