package aqm

import (
	"fmt"
	"strings"

	"marlin/internal/sim"
	"marlin/internal/spec"
)

// Kind selects a marking policy: drop-tail, a discipline, or step ECN.
type Kind uint8

// Marking policies.
const (
	KindNone Kind = iota
	KindRED
	KindPIE
	KindCoDel
	KindPI2
	KindDualPI2
	KindECN
)

// kindNames are the spec-language names, indexed by Kind.
var kindNames = [...]string{"none", "red", "pie", "codel", "pi2", "dualpi2", "ecn"}

// String returns the spec-language name of the policy.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "none"
}

// Spec is a parsed, validated marking policy — a plain value that travels
// through controlplane.Spec and core.Config and is turned into live
// per-queue state by Build, except the paper's step ECN, whose K core turns
// into bytes for the queue's inline comparator. Zero value is drop-tail.
type Spec struct {
	Kind Kind
	K    int // step ECN: CE-mark ECN-capable arrivals from a backlog of K packets

	// RED knobs. Thresholds of zero scale to the queue capacity at Build
	// time (capacity/6 and capacity/2).
	MinTh   int          // EWMA threshold where marking starts, bytes
	MaxTh   int          // EWMA threshold of certain marking, bytes
	MaxP    float64      // mark probability at MaxTh
	Weight  float64      // EWMA gain wq
	IdlePkt sim.Duration // virtual packet time for idle-period EWMA decay

	// Delay-target knobs (PIE, CoDel, PI2, DualPI2).
	Target   sim.Duration // standing-delay setpoint
	Interval sim.Duration // CoDel sliding window
	TUpdate  sim.Duration // PI controller period (PIE, PI2, DualPI2)
	Alpha    float64      // PI integral gain, 1/s
	Beta     float64      // PI proportional gain, 1/s
	ECNTh    float64      // PIE drop-even-if-ECN safeguard threshold

	// DualPI2 knobs.
	Coupling float64      // k: L4S mark probability is k·p'
	Step     sim.Duration // L4S sojourn step-mark threshold
	Shift    sim.Duration // L4S head start in the time-shifted FIFO
}

// Enabled reports whether the spec names a marking policy.
func (s Spec) Enabled() bool { return s.Kind != KindNone }

// ParseSpec compiles a textual AQM spec: a discipline name, optionally
// followed by ':' and comma-separated key=value overrides — the same shape
// as faults.ParseSpec and workload.ParseSpec entries:
//
//	red:min=30000,max=90000,maxp=0.1,w=0.002
//	pie:target=15ms,tupdate=15ms,alpha=0.125,beta=1.25
//	codel:target=5ms,interval=100ms
//	pi2:target=15ms,tupdate=16ms,alpha=0.3125,beta=3.125
//	dualpi2:target=15ms,coupling=2,step=1ms,shift=1ms
//	ecn:k=65
//
// A bare name ("pi2"; "ecn" is K = 65) takes every default; "none" or the
// empty string disables marking. Durations use Go syntax ("15ms", "250us").
func ParseSpec(src string) (Spec, error) {
	src = strings.TrimSpace(src)
	name, body, hasBody := strings.Cut(src, ":")
	s, err := defaults(name)
	if err != nil || !hasBody {
		return s, err
	}
	pairs, perr := spec.Pairs(body)
	if perr != nil {
		return Spec{}, fmt.Errorf("aqm: %q: %w", src, perr)
	}
	for _, kv := range pairs {
		if err := s.set(kv); err != nil {
			return Spec{}, fmt.Errorf("aqm: %q: %w", src, err)
		}
	}
	if err := s.validate(); err != nil {
		return Spec{}, fmt.Errorf("aqm: %q: %w", src, err)
	}
	return s, nil
}

// defaults returns the per-discipline default parameters: RED from the
// classic recommendations, PIE from RFC 8033, CoDel from RFC 8289,
// PI2/DualPI2 from RFC 9332, and step ECN at the K every preset uses.
func defaults(name string) (Spec, error) {
	switch name {
	case "", "none":
		return Spec{}, nil
	case "red":
		return Spec{Kind: KindRED, MaxP: 0.1, Weight: 0.002, IdlePkt: sim.Micros(1)}, nil
	case "pie":
		return Spec{
			Kind: KindPIE, Target: 15 * sim.Millisecond, TUpdate: 15 * sim.Millisecond,
			Alpha: 0.125, Beta: 1.25, ECNTh: 0.1,
		}, nil
	case "codel":
		return Spec{Kind: KindCoDel, Target: 5 * sim.Millisecond, Interval: 100 * sim.Millisecond}, nil
	case "pi2":
		return Spec{
			Kind: KindPI2, Target: 15 * sim.Millisecond, TUpdate: 16 * sim.Millisecond,
			Alpha: 0.3125, Beta: 3.125,
		}, nil
	case "dualpi2":
		return Spec{
			Kind: KindDualPI2, Target: 15 * sim.Millisecond, TUpdate: 16 * sim.Millisecond,
			Alpha: 0.3125, Beta: 3.125,
			Coupling: 2, Step: sim.Millisecond, Shift: sim.Millisecond,
		}, nil
	case "ecn":
		return Spec{Kind: KindECN, K: 65}, nil
	default:
		return Spec{}, fmt.Errorf("aqm: unknown discipline %q", name)
	}
}

// set applies one key=value override, rejecting keys foreign to the
// discipline so a typo cannot silently configure nothing.
func (s *Spec) set(kv spec.Pair) error {
	var err error
	ok := true
	switch kv.Key {
	case "min":
		s.MinTh, err = spec.Int("min", kv.Val)
		ok = s.Kind == KindRED
	case "max":
		s.MaxTh, err = spec.Int("max", kv.Val)
		ok = s.Kind == KindRED
	case "maxp":
		s.MaxP, err = spec.Float("maxp", kv.Val)
		ok = s.Kind == KindRED
	case "w":
		s.Weight, err = spec.Float("w", kv.Val)
		ok = s.Kind == KindRED
	case "target":
		s.Target, err = spec.Duration(kv.Val)
		ok = s.Kind != KindNone && s.Kind != KindRED && s.Kind != KindECN
	case "interval":
		s.Interval, err = spec.Duration(kv.Val)
		ok = s.Kind == KindCoDel
	case "tupdate":
		s.TUpdate, err = spec.Duration(kv.Val)
		ok = s.Kind == KindPIE || s.Kind == KindPI2 || s.Kind == KindDualPI2
	case "alpha":
		s.Alpha, err = spec.Float("alpha", kv.Val)
		ok = s.Kind == KindPIE || s.Kind == KindPI2 || s.Kind == KindDualPI2
	case "beta":
		s.Beta, err = spec.Float("beta", kv.Val)
		ok = s.Kind == KindPIE || s.Kind == KindPI2 || s.Kind == KindDualPI2
	case "ecnth":
		s.ECNTh, err = spec.Float("ecnth", kv.Val)
		ok = s.Kind == KindPIE
	case "coupling":
		s.Coupling, err = spec.Float("coupling", kv.Val)
		ok = s.Kind == KindDualPI2
	case "step":
		s.Step, err = spec.Duration(kv.Val)
		ok = s.Kind == KindDualPI2
	case "shift":
		s.Shift, err = spec.Duration(kv.Val)
		ok = s.Kind == KindDualPI2
	case "k":
		s.K, err = spec.Int("k", kv.Val)
		ok = s.Kind == KindECN
	default:
		return fmt.Errorf("unexpected %q for %s", kv.Key, s.Kind)
	}
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("unexpected %q for %s", kv.Key, s.Kind)
	}
	return nil
}

func (s Spec) validate() error {
	switch {
	case s.Kind == KindRED && (s.MaxP <= 0 || s.MaxP > 1):
		return fmt.Errorf("maxp must be in (0,1]")
	case s.Kind == KindRED && (s.Weight <= 0 || s.Weight >= 1):
		return fmt.Errorf("w must be in (0,1)")
	case s.Kind == KindRED && s.MinTh > 0 && s.MaxTh > 0 && s.MinTh >= s.MaxTh:
		return fmt.Errorf("min must be below max")
	case s.Kind == KindCoDel && s.Interval <= 0:
		return fmt.Errorf("interval must be positive")
	case s.Kind != KindNone && s.Kind != KindRED && s.Kind != KindECN && s.Target <= 0:
		return fmt.Errorf("target must be positive")
	case (s.Kind == KindPIE || s.Kind == KindPI2 || s.Kind == KindDualPI2) && s.TUpdate <= 0:
		return fmt.Errorf("tupdate must be positive")
	case s.Kind == KindDualPI2 && s.Coupling <= 0:
		return fmt.Errorf("coupling must be positive")
	case s.Kind == KindECN && s.K < 1:
		return fmt.Errorf("k must be at least 1")
	}
	return nil
}

// String renders the spec the way ParseSpec reads it, with the discipline's
// full parameter set spelled out.
func (s Spec) String() string {
	switch s.Kind {
	case KindRED:
		return fmt.Sprintf("red:min=%d,max=%d,maxp=%g,w=%g", s.MinTh, s.MaxTh, s.MaxP, s.Weight)
	case KindPIE:
		return fmt.Sprintf("pie:target=%s,tupdate=%s,alpha=%g,beta=%g,ecnth=%g",
			spec.FormatDuration(s.Target), spec.FormatDuration(s.TUpdate), s.Alpha, s.Beta, s.ECNTh)
	case KindCoDel:
		return fmt.Sprintf("codel:target=%s,interval=%s", spec.FormatDuration(s.Target), spec.FormatDuration(s.Interval))
	case KindPI2:
		return fmt.Sprintf("pi2:target=%s,tupdate=%s,alpha=%g,beta=%g",
			spec.FormatDuration(s.Target), spec.FormatDuration(s.TUpdate), s.Alpha, s.Beta)
	case KindDualPI2:
		return fmt.Sprintf("dualpi2:target=%s,tupdate=%s,alpha=%g,beta=%g,coupling=%g,step=%s,shift=%s",
			spec.FormatDuration(s.Target), spec.FormatDuration(s.TUpdate), s.Alpha, s.Beta, s.Coupling, spec.FormatDuration(s.Step), spec.FormatDuration(s.Shift))
	case KindECN:
		return fmt.Sprintf("ecn:k=%d", s.K)
	default:
		return "none"
	}
}

// Build instantiates the discipline for one queue of the given byte
// capacity. The rng must be a pre-split per-queue stream (sim.Rand.Split
// at wiring time) so marking decisions are byte-identical regardless of
// how many fleet workers run concurrently. Returns nil for KindNone and
// KindECN, which the queue applies without a discipline.
func (s Spec) Build(capacityBytes int, rng *sim.Rand) AQM {
	switch s.Kind {
	case KindRED:
		return newRED(s, capacityBytes, rng)
	case KindPIE:
		return newPIE(s, rng)
	case KindCoDel:
		return newCoDel(s)
	case KindPI2:
		return newPI2(s, rng)
	case KindDualPI2:
		return newDualPI2(s, rng)
	default:
		return nil
	}
}
