// Traffic patterns: deterministic sim-time rate envelopes and storm
// schedules in the style of P4TG's periodic pattern generators. A Pattern
// describes *when* offered load arrives — square-wave and sawtooth ramps,
// Markov-modulated and lognormal arrival processes, synchronized incast
// storms, and victim-targeted DDoS floods — while the existing SizeDist
// machinery keeps describing *how much* each flow carries. The Driver
// (driver.go) compiles a plan of patterns onto a tester.
package workload

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"marlin/internal/packet"
	"marlin/internal/sim"
	"marlin/internal/spec"
)

// Pattern is one deterministic traffic pattern: a rate envelope over
// simulated time, plus enough self-description for the driver to schedule
// it. Implementations are pure values; all randomness they need at run
// time comes from seeds carried in the pattern itself or from the
// driver's seeded streams.
type Pattern interface {
	// Name returns the pattern's spec keyword ("square", "flood", ...).
	Name() string
	// RateAt returns the offered-load envelope at absolute sim time t.
	RateAt(t sim.Time) sim.Rate
	// PeakRate bounds RateAt from above; the driver's thinning sampler
	// proposes arrivals at this rate.
	PeakRate() sim.Rate
	// Spec renders the pattern in ParseSpec syntax (round-trippable).
	Spec() string
	// validate rejects malformed parameters before anything is scheduled.
	validate() error
}

// Common optional knobs shared by the load-envelope patterns (square, saw,
// mmpp, lognormal): the flow-size distribution feeding arrivals and an
// optional fan-in victim port.
type loadOpts struct {
	// Dist names the flow-size distribution ("websearch", "datamining",
	// "uniform"); empty means websearch.
	Dist string
	// Victim, when >= 0, receives every flow the pattern starts
	// (fan-in); -1 spreads receivers uniformly.
	Victim int
}

func (o loadOpts) validate() error {
	switch o.Dist {
	case "", "websearch", "datamining", "uniform":
	default:
		return fmt.Errorf("unknown dist %q", o.Dist)
	}
	return nil
}

func (o loadOpts) dist() *SizeDist {
	switch o.Dist {
	case "datamining":
		return DataMining()
	case "uniform":
		return Uniform(1, 100)
	default:
		return WebSearch()
	}
}

func (o loadOpts) specSuffix() string {
	var b strings.Builder
	if o.Dist != "" {
		fmt.Fprintf(&b, ",dist=%s", o.Dist)
	}
	if o.Victim >= 0 {
		fmt.Fprintf(&b, ",victim=%d", o.Victim)
	}
	return b.String()
}

// Square is a square-wave rate envelope: Peak for the first Duty fraction
// of every Period, Base for the rest. Spec form:
//
//	square:period=10ms,duty=0.2,peak=40G,base=1G
type Square struct {
	Period sim.Duration
	Duty   float64 // on-fraction of the period, in (0, 1]
	Peak   sim.Rate
	Base   sim.Rate
	Opts   loadOpts
}

// Name implements Pattern.
func (p *Square) Name() string { return "square" }

// RateAt implements Pattern.
func (p *Square) RateAt(t sim.Time) sim.Rate {
	phase := sim.Duration(t) % p.Period
	if float64(phase) < p.Duty*float64(p.Period) {
		return p.Peak
	}
	return p.Base
}

// PeakRate implements Pattern.
func (p *Square) PeakRate() sim.Rate { return p.Peak }

// Spec implements Pattern.
func (p *Square) Spec() string {
	return fmt.Sprintf("square:period=%s,duty=%g,peak=%s,base=%s%s",
		spec.FormatDuration(p.Period), p.Duty, spec.FormatRate(p.Peak), spec.FormatRate(p.Base), p.Opts.specSuffix())
}

func (p *Square) validate() error {
	if p.Period <= 0 {
		return fmt.Errorf("non-positive period")
	}
	if p.Duty <= 0 || p.Duty > 1 {
		return fmt.Errorf("duty %g outside (0, 1]", p.Duty)
	}
	if p.Peak <= 0 {
		return fmt.Errorf("non-positive peak")
	}
	if p.Base < 0 || p.Base > p.Peak {
		return fmt.Errorf("base %v outside [0, peak]", p.Base)
	}
	return p.Opts.validate()
}

// Saw is a sawtooth envelope ramping linearly from Base to Peak over each
// Period, then snapping back. Spec form:
//
//	saw:period=10ms,peak=40G,base=1G
type Saw struct {
	Period sim.Duration
	Peak   sim.Rate
	Base   sim.Rate
	Opts   loadOpts
}

// Name implements Pattern.
func (p *Saw) Name() string { return "saw" }

// RateAt implements Pattern.
func (p *Saw) RateAt(t sim.Time) sim.Rate {
	phase := sim.Duration(t) % p.Period
	frac := float64(phase) / float64(p.Period)
	return p.Base + sim.Rate(frac*float64(p.Peak-p.Base))
}

// PeakRate implements Pattern.
func (p *Saw) PeakRate() sim.Rate { return p.Peak }

// Spec implements Pattern.
func (p *Saw) Spec() string {
	return fmt.Sprintf("saw:period=%s,peak=%s,base=%s%s",
		spec.FormatDuration(p.Period), spec.FormatRate(p.Peak), spec.FormatRate(p.Base), p.Opts.specSuffix())
}

func (p *Saw) validate() error {
	if p.Period <= 0 {
		return fmt.Errorf("non-positive period")
	}
	if p.Peak <= 0 {
		return fmt.Errorf("non-positive peak")
	}
	if p.Base < 0 || p.Base >= p.Peak {
		return fmt.Errorf("base %v outside [0, peak)", p.Base)
	}
	return p.Opts.validate()
}

// MMPP is a Markov-modulated rate envelope: the offered load holds one of
// Rates while in the matching state, dwells an exponential sojourn with
// the state's mean Dwell, then jumps to a uniformly-drawn other state. The
// trajectory is a pure function of Seed: it is generated lazily and
// memoized, so RateAt answers consistently in any query order. Spec form:
//
//	mmpp:rates=1G|40G,dwell=1ms|250us,seed=7
type MMPP struct {
	Rates  []sim.Rate
	Dwells []sim.Duration
	Seed   uint64
	Opts   loadOpts

	// Memoized trajectory: hops[i] says state hops[i].state rules
	// [hops[i].from, hops[i+1].from); rng extends it on demand.
	hops []mmppHop
	rng  *sim.Rand
}

type mmppHop struct {
	from  sim.Time
	state int
}

// Name implements Pattern.
func (p *MMPP) Name() string { return "mmpp" }

// RateAt implements Pattern.
func (p *MMPP) RateAt(t sim.Time) sim.Rate {
	return p.Rates[p.stateAt(t)]
}

// stateAt extends the memoized trajectory until it covers t and returns
// the ruling state.
func (p *MMPP) stateAt(t sim.Time) int {
	if p.rng == nil {
		p.rng = sim.NewRand(p.Seed)
		p.hops = []mmppHop{{from: 0, state: 0}}
	}
	// Extend until the last recorded hop begins after t; every hop before
	// it then has a bounded interval, so t's ruling state is settled and
	// can never change on later extensions — RateAt is consistent in any
	// query order and the stream is consumed exactly once per hop.
	for p.hops[len(p.hops)-1].from <= t {
		last := p.hops[len(p.hops)-1]
		sojourn := p.rng.Exp(p.Dwells[last.state])
		if sojourn <= 0 {
			sojourn = 1
		}
		next := (last.state + 1 + p.rng.Intn(len(p.Rates)-1)) % len(p.Rates)
		p.hops = append(p.hops, mmppHop{from: last.from.Add(sojourn), state: next})
	}
	// Binary search for the hop ruling t.
	i := sort.Search(len(p.hops), func(i int) bool { return p.hops[i].from > t })
	return p.hops[i-1].state
}

// PeakRate implements Pattern.
func (p *MMPP) PeakRate() sim.Rate {
	var peak sim.Rate
	for _, r := range p.Rates {
		if r > peak {
			peak = r
		}
	}
	return peak
}

// Spec implements Pattern.
func (p *MMPP) Spec() string {
	rates := make([]string, len(p.Rates))
	for i, r := range p.Rates {
		rates[i] = spec.FormatRate(r)
	}
	dwells := make([]string, len(p.Dwells))
	for i, d := range p.Dwells {
		dwells[i] = spec.FormatDuration(d)
	}
	return fmt.Sprintf("mmpp:rates=%s,dwell=%s,seed=%d%s",
		strings.Join(rates, "|"), strings.Join(dwells, "|"), p.Seed, p.Opts.specSuffix())
}

func (p *MMPP) validate() error {
	if len(p.Rates) < 2 {
		return fmt.Errorf("need at least 2 states, got %d", len(p.Rates))
	}
	if len(p.Dwells) != len(p.Rates) {
		return fmt.Errorf("%d dwells for %d rates", len(p.Dwells), len(p.Rates))
	}
	for i, r := range p.Rates {
		if r < 0 {
			return fmt.Errorf("negative rate in state %d", i)
		}
	}
	if p.PeakRate() <= 0 {
		return fmt.Errorf("all states idle")
	}
	for i, d := range p.Dwells {
		if d <= 0 {
			return fmt.Errorf("non-positive dwell in state %d", i)
		}
	}
	return p.Opts.validate()
}

// Lognormal is a renewal arrival process with lognormal inter-arrival
// gaps: a constant mean offered load of Rate, with the burstiness
// controlled by Sigma (the log-space standard deviation; 0 < sigma,
// larger means heavier clumping). Spec form:
//
//	lognormal:rate=5G,sigma=1.5
type Lognormal struct {
	Rate  sim.Rate
	Sigma float64
	Opts  loadOpts
}

// Name implements Pattern.
func (p *Lognormal) Name() string { return "lognormal" }

// RateAt implements Pattern.
func (p *Lognormal) RateAt(sim.Time) sim.Rate { return p.Rate }

// PeakRate implements Pattern.
func (p *Lognormal) PeakRate() sim.Rate { return p.Rate }

// Spec implements Pattern.
func (p *Lognormal) Spec() string {
	return fmt.Sprintf("lognormal:rate=%s,sigma=%g%s",
		spec.FormatRate(p.Rate), p.Sigma, p.Opts.specSuffix())
}

func (p *Lognormal) validate() error {
	if p.Rate <= 0 {
		return fmt.Errorf("non-positive rate")
	}
	if p.Sigma <= 0 || p.Sigma > 4 {
		return fmt.Errorf("sigma %g outside (0, 4]", p.Sigma)
	}
	return p.Opts.validate()
}

// nextGap draws one lognormal inter-arrival gap with the given mean:
// exp(N(mu, sigma^2)) with mu = ln(mean) - sigma^2/2 so the expectation
// lands on mean regardless of sigma.
func (p *Lognormal) nextGap(rng *sim.Rand, mean sim.Duration) sim.Duration {
	mu := math.Log(float64(mean)) - p.Sigma*p.Sigma/2
	// Box-Muller; two uniform draws per gap keeps the stream consumption
	// a fixed function of the arrival count.
	u1, u2 := rng.Float64(), rng.Float64()
	for u1 == 0 {
		u1 = rng.Float64()
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	g := math.Exp(mu + p.Sigma*z)
	if g < 1 {
		g = 1
	}
	return sim.Duration(g)
}

// Incast is a synchronized N-to-1 storm: every Period, Fanin sender ports
// each start one flow of SizePkts packets toward Victim — the classic
// partition/aggregate burst. The first storm fires one period in. Spec
// form:
//
//	incast:period=5ms,fanin=8,victim=4,size=150
type Incast struct {
	Period   sim.Duration
	Fanin    int
	Victim   int
	SizePkts uint32
}

// Name implements Pattern.
func (p *Incast) Name() string { return "incast" }

// RateAt reports the storm's period-averaged offered load per sender as
// zero: incast arrivals are impulses placed by the driver's storm timer,
// not envelope-driven.
func (p *Incast) RateAt(sim.Time) sim.Rate { return 0 }

// PeakRate implements Pattern.
func (p *Incast) PeakRate() sim.Rate { return 0 }

// Spec implements Pattern.
func (p *Incast) Spec() string {
	return fmt.Sprintf("incast:period=%s,fanin=%d,victim=%d,size=%d",
		spec.FormatDuration(p.Period), p.Fanin, p.Victim, p.SizePkts)
}

func (p *Incast) validate() error {
	if p.Period <= 0 {
		return fmt.Errorf("non-positive period")
	}
	if p.Fanin < 1 {
		return fmt.Errorf("fanin %d < 1", p.Fanin)
	}
	if p.Victim < 0 {
		return fmt.Errorf("negative victim port")
	}
	if p.SizePkts < 1 {
		return fmt.Errorf("size %d < 1 packet", p.SizePkts)
	}
	return nil
}

// Flood is a victim-targeted UDP-style flood: raw DATA frames paced at
// the envelope rate are injected into the tested network toward Victim,
// bypassing congestion control entirely — they share queues with the
// well-behaved traffic but never back off. With a period the flood
// pulses (Peak for Duty of each Period, silent otherwise); without one
// it runs flat out. Spec form:
//
//	flood:peak=20G,victim=0,period=4ms,duty=0.25,ect=not
type Flood struct {
	Peak   sim.Rate
	Victim int
	// Period/Duty pulse the flood; Period == 0 floods continuously.
	Period sim.Duration
	Duty   float64
	// ECT is the ECN codepoint stamped on the flood's frames (default
	// ECT(0)). Not-ECT models a plain UDP blast that AQMs can only drop;
	// ECT(1) models an abuser squatting in a dual-queue AQM's low-latency
	// band.
	ECT packet.ECT
}

// Name implements Pattern.
func (p *Flood) Name() string { return "flood" }

// RateAt implements Pattern.
func (p *Flood) RateAt(t sim.Time) sim.Rate {
	if p.Period == 0 {
		return p.Peak
	}
	phase := sim.Duration(t) % p.Period
	if float64(phase) < p.Duty*float64(p.Period) {
		return p.Peak
	}
	return 0
}

// PeakRate implements Pattern.
func (p *Flood) PeakRate() sim.Rate { return p.Peak }

// Spec implements Pattern.
func (p *Flood) Spec() string {
	s := fmt.Sprintf("flood:peak=%s,victim=%d", spec.FormatRate(p.Peak), p.Victim)
	if p.Period > 0 {
		s += fmt.Sprintf(",period=%s,duty=%g", spec.FormatDuration(p.Period), p.Duty)
	}
	if p.ECT != packet.ECT0 {
		s += ",ect=" + ectSpec(p.ECT)
	}
	return s
}

// ectSpec renders an ECN codepoint in flood-spec syntax.
func ectSpec(e packet.ECT) string {
	switch e {
	case packet.NotECT:
		return "not"
	case packet.ECT1:
		return "ect1"
	default:
		return "ect0"
	}
}

func (p *Flood) validate() error {
	if p.Peak <= 0 {
		return fmt.Errorf("non-positive peak")
	}
	if p.Victim < 0 {
		return fmt.Errorf("negative victim port")
	}
	if p.Period < 0 {
		return fmt.Errorf("negative period")
	}
	if p.Period > 0 && (p.Duty <= 0 || p.Duty > 1) {
		return fmt.Errorf("duty %g outside (0, 1]", p.Duty)
	}
	if p.Period == 0 && p.Duty != 0 {
		return fmt.Errorf("duty without a period")
	}
	return nil
}

// Plan is an ordered set of traffic patterns driven together.
type Plan struct {
	Patterns []Pattern
}

// IsZero reports whether the plan schedules nothing.
func (p Plan) IsZero() bool { return len(p.Patterns) == 0 }

// String renders the plan in ParseSpec syntax.
func (p Plan) String() string {
	parts := make([]string, len(p.Patterns))
	for i, pat := range p.Patterns {
		parts[i] = pat.Spec()
	}
	return strings.Join(parts, "; ")
}

// Validate checks every pattern's parameters.
func (p Plan) Validate() error {
	for i, pat := range p.Patterns {
		if err := pat.validate(); err != nil {
			return fmt.Errorf("workload: pattern %d (%s): %w", i, pat.Name(), err)
		}
	}
	return nil
}

// Victims returns every explicit victim port the plan names, in pattern
// order — the set a control plane must range-check against the test's data
// ports before deploying.
func (p Plan) Victims() []int {
	var out []int
	for _, pat := range p.Patterns {
		switch v := pat.(type) {
		case *Incast:
			out = append(out, v.Victim)
		case *Flood:
			out = append(out, v.Victim)
		case *Square:
			if v.Opts.Victim >= 0 {
				out = append(out, v.Opts.Victim)
			}
		case *Saw:
			if v.Opts.Victim >= 0 {
				out = append(out, v.Opts.Victim)
			}
		case *MMPP:
			if v.Opts.Victim >= 0 {
				out = append(out, v.Opts.Victim)
			}
		case *Lognormal:
			if v.Opts.Victim >= 0 {
				out = append(out, v.Opts.Victim)
			}
		}
	}
	return out
}

// Victim returns the first explicit victim port named by the plan (incast
// or flood target, or a load pattern's victim= knob); ok is false when no
// pattern names one.
func (p Plan) Victim() (victim int, ok bool) {
	for _, pat := range p.Patterns {
		switch v := pat.(type) {
		case *Incast:
			return v.Victim, true
		case *Flood:
			return v.Victim, true
		case *Square:
			if v.Opts.Victim >= 0 {
				return v.Opts.Victim, true
			}
		case *Saw:
			if v.Opts.Victim >= 0 {
				return v.Opts.Victim, true
			}
		case *MMPP:
			if v.Opts.Victim >= 0 {
				return v.Opts.Victim, true
			}
		case *Lognormal:
			if v.Opts.Victim >= 0 {
				return v.Opts.Victim, true
			}
		}
	}
	return 0, false
}
