// Package faults provides deterministic, sim-time-scheduled fault
// injection for the tested network: link failures, rate brownouts,
// random-loss bursts, ECN-marking outages, and NIC stalls, compiled onto
// the netem/fpga primitives and replayed byte-identically from the plan
// and its seeds.
//
// Where internal/netem's Script injects faults at specific (flow, PSN)
// points — the paper's §7.1 methodology — this package injects faults at
// specific points in *time*, the shape operators actually see: a leaf
// uplink flaps for 500 us, a transceiver browns out to half rate, a
// firmware update stalls the NIC. Everything is keyed on the simulation
// clock and seeded RNG streams, so a fault plan is exactly as reproducible
// as the traffic it disturbs.
package faults

import (
	"fmt"
	"sort"
	"strings"

	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/sim"
	"marlin/internal/spec"
)

// Kind identifies a fault type.
type Kind string

// Fault kinds.
const (
	// KindLinkDown takes a link administratively down: arrivals are
	// carrier losses, queued frames hold, the drain stops.
	KindLinkDown Kind = "linkdown"
	// KindBrownout degrades a link's rate to a fraction of nominal.
	KindBrownout Kind = "brownout"
	// KindLossBurst drops DATA packets with a seeded probability.
	KindLossBurst Kind = "lossburst"
	// KindEcnOff suppresses ECN marking at the link's queue.
	KindEcnOff Kind = "ecnoff"
	// KindNICStall freezes the FPGA NIC's RX/TX pacing timers.
	KindNICStall Kind = "nicstall"
)

// Entry is one scheduled fault: Kind applied to Link (empty for
// nicstall) over the window [At, At+Dur).
type Entry struct {
	Kind Kind
	// Link names the target link, e.g. "leaf0->spine1" or "host2->leaf0"
	// (resolved by the Target). Empty for nicstall.
	Link string
	// At is the absolute simulation time the fault begins.
	At sim.Time
	// Dur is how long the fault lasts.
	Dur sim.Duration
	// Fraction is the brownout's remaining rate fraction in (0, 1].
	Fraction float64
	// Prob is the lossburst's per-packet drop probability in (0, 1].
	Prob float64
	// Seed seeds the lossburst's private RNG stream.
	Seed uint64
}

// End returns the instant the fault clears.
func (e Entry) End() sim.Time { return e.At.Add(e.Dur) }

// String renders the entry in the ParseSpec syntax.
func (e Entry) String() string {
	var b strings.Builder
	b.WriteString(string(e.Kind))
	if e.Link != "" {
		b.WriteString(" " + e.Link)
	}
	fmt.Fprintf(&b, " at %s for %s", spec.FormatDuration(sim.Duration(e.At)), spec.FormatDuration(e.Dur))
	switch e.Kind {
	case KindBrownout:
		fmt.Fprintf(&b, " frac %g", e.Fraction)
	case KindLossBurst:
		fmt.Fprintf(&b, " prob %g seed %d", e.Prob, e.Seed)
	}
	return b.String()
}

// LinkDown schedules a carrier loss on the named link.
func LinkDown(link string, at sim.Time, dur sim.Duration) Entry {
	return Entry{Kind: KindLinkDown, Link: link, At: at, Dur: dur}
}

// Brownout schedules a rate degradation to fraction of the link's rate at
// fault time (e.g. 0.1 leaves a tenth of the capacity).
func Brownout(link string, at sim.Time, dur sim.Duration, fraction float64) Entry {
	return Entry{Kind: KindBrownout, Link: link, At: at, Dur: dur, Fraction: fraction}
}

// LossBurst schedules a window of seeded random DATA loss with the given
// per-packet probability.
func LossBurst(link string, at sim.Time, dur sim.Duration, prob float64, seed uint64) Entry {
	return Entry{Kind: KindLossBurst, Link: link, At: at, Dur: dur, Prob: prob, Seed: seed}
}

// EcnOff schedules an ECN-marking outage at the link's queue.
func EcnOff(link string, at sim.Time, dur sim.Duration) Entry {
	return Entry{Kind: KindEcnOff, Link: link, At: at, Dur: dur}
}

// NICStall schedules a freeze of the tester NIC's pacing timers.
func NICStall(at sim.Time, dur sim.Duration) Entry {
	return Entry{Kind: KindNICStall, At: at, Dur: dur}
}

// Plan is an ordered set of fault entries.
type Plan struct {
	Entries []Entry
}

// IsZero reports whether the plan schedules nothing.
func (p Plan) IsZero() bool { return len(p.Entries) == 0 }

// String renders the plan in the ParseSpec syntax.
func (p Plan) String() string {
	parts := make([]string, len(p.Entries))
	for i, e := range p.Entries {
		parts[i] = e.String()
	}
	return strings.Join(parts, "; ")
}

// Validate checks every entry's parameters and rejects overlapping
// windows of the same kind on the same target — an overlap would make the
// restore order ambiguous (the first fault's end would cancel the second
// fault mid-window).
func (p Plan) Validate() error {
	for i, e := range p.Entries {
		if err := e.validate(); err != nil {
			return fmt.Errorf("faults: entry %d (%s): %w", i, e.Kind, err)
		}
	}
	// Sort a copy by (kind, link, at) and scan adjacent pairs for overlap.
	sorted := append([]Entry(nil), p.Entries...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Link != b.Link {
			return a.Link < b.Link
		}
		return a.At < b.At
	})
	for i := 1; i < len(sorted); i++ {
		a, b := sorted[i-1], sorted[i]
		if a.Kind == b.Kind && a.Link == b.Link && b.At < a.End() {
			return fmt.Errorf("faults: overlapping %s windows on %q ([%v,%v) and [%v,%v))",
				a.Kind, a.Link, a.At, a.End(), b.At, b.End())
		}
	}
	return nil
}

func (e Entry) validate() error {
	switch e.Kind {
	case KindLinkDown, KindEcnOff:
		if e.Link == "" {
			return fmt.Errorf("missing link name")
		}
	case KindBrownout:
		if e.Link == "" {
			return fmt.Errorf("missing link name")
		}
		if e.Fraction <= 0 || e.Fraction > 1 {
			return fmt.Errorf("fraction %g outside (0, 1]", e.Fraction)
		}
	case KindLossBurst:
		if e.Link == "" {
			return fmt.Errorf("missing link name")
		}
		if e.Prob <= 0 || e.Prob > 1 {
			return fmt.Errorf("prob %g outside (0, 1]", e.Prob)
		}
	case KindNICStall:
		if e.Link != "" {
			return fmt.Errorf("nicstall takes no link")
		}
	default:
		return fmt.Errorf("unknown kind %q", e.Kind)
	}
	if e.At < 0 {
		return fmt.Errorf("negative start time")
	}
	if e.Dur <= 0 {
		return fmt.Errorf("non-positive duration")
	}
	return nil
}

// Target is what a fault plan applies to. core.Tester implements it; tests
// can supply a stub.
type Target interface {
	// ResolveLink maps a plan link name onto the emulated link.
	ResolveLink(name string) (*netem.Link, error)
	// StallNIC gates the tester NIC's pacing timers.
	StallNIC(stalled bool)
}

// Apply validates the plan, resolves every link name eagerly (a typo
// fails before the run, not mid-experiment), and schedules all fault
// start/end events on the engine. Call before running the simulation.
func Apply(eng *sim.Engine, target Target, plan Plan) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	links := make([]*netem.Link, len(plan.Entries))
	for i, e := range plan.Entries {
		if e.Link == "" {
			continue
		}
		l, err := target.ResolveLink(e.Link)
		if err != nil {
			return fmt.Errorf("faults: entry %d: %w", i, err)
		}
		links[i] = l
	}
	for i, e := range plan.Entries {
		scheduleEntry(eng, target, e, links[i])
	}
	return nil
}

// scheduleEntry arms one entry's start and end events.
func scheduleEntry(eng *sim.Engine, target Target, e Entry, link *netem.Link) {
	switch e.Kind {
	case KindLinkDown:
		eng.ScheduleAt(e.At, func() { link.SetDown(true) })
		eng.ScheduleAt(e.End(), func() { link.SetDown(false) })
	case KindBrownout:
		// The nominal rate is captured at fault time, not plan time, so
		// stacked faults of different kinds compose predictably.
		var nominal sim.Rate
		eng.ScheduleAt(e.At, func() {
			nominal = link.Rate()
			degraded := sim.Rate(float64(nominal) * e.Fraction)
			if degraded < 1 {
				degraded = 1
			}
			link.SetRate(degraded)
		})
		eng.ScheduleAt(e.End(), func() { link.SetRate(nominal) })
	case KindLossBurst:
		// One hook installed up front, gated on the window; its RNG stream
		// is private to the entry so plans replay byte-identically
		// regardless of what else consumes randomness.
		rng := sim.NewRand(e.Seed)
		link.AddHook(func(p *packet.Packet) netem.HookAction {
			now := eng.Now()
			if now < e.At || now >= e.End() {
				return netem.Pass
			}
			// Unlike netem.Script, a loss burst is a property of the wire,
			// not of a PSN: retransmissions are just as exposed.
			if p.Type == packet.DATA && rng.Float64() < e.Prob {
				return netem.Drop
			}
			return netem.Pass
		})
	case KindEcnOff:
		eng.ScheduleAt(e.At, func() { link.Queue().SuppressMarking(true) })
		eng.ScheduleAt(e.End(), func() { link.Queue().SuppressMarking(false) })
	case KindNICStall:
		eng.ScheduleAt(e.At, func() { target.StallNIC(true) })
		eng.ScheduleAt(e.End(), func() { target.StallNIC(false) })
	}
}
