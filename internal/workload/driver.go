package workload

import (
	"fmt"

	"marlin/internal/packet"
	"marlin/internal/sim"
)

// DefaultFlowBase is the first flow ID a Driver allocates for pattern
// traffic. User flows live below it, pattern flows at and above it, so
// telemetry can split background from pattern traffic by ID alone.
const DefaultFlowBase packet.FlowID = 4096

// Target is what a pattern plan drives. core.Tester implements it; tests
// can supply a stub.
type Target interface {
	// StartFlow launches a CC-governed flow (pattern arrivals, incast
	// storms) of sizePkts MTU-sized packets from tx to rx.
	StartFlow(flow packet.FlowID, tx, rx int, sizePkts uint32) error
	// BindExternalFlow routes a tester-external flow ID (flood traffic
	// that bypasses the NIC) toward receiver port rx.
	BindExternalFlow(flow packet.FlowID, rx int) error
	// InjectData sends one raw DATA frame carrying the given ECN
	// codepoint for the flow into tx's uplink.
	InjectData(flow packet.FlowID, tx int, psn uint32, frameBytes int, ect packet.ECT)
}

// DriverConfig sizes a Driver to its tester.
type DriverConfig struct {
	// Ports is the tester's data-port count.
	Ports int
	// MTU is the DATA frame size in bytes.
	MTU int
	// Seed derives every driver random stream; it is independent of the
	// tester's own streams so installing a pattern never perturbs the
	// baseline traffic.
	Seed uint64
}

// Driver schedules a compiled pattern plan onto a tester: open-loop flow
// arrivals thinned against each load pattern's envelope, synchronized
// incast storms, and paced flood injection.
type Driver struct {
	eng    *sim.Engine
	target Target
	plan   Plan
	cfg    DriverConfig

	nextFlow packet.FlowID
	started  uint64
	skipped  uint64
	injected uint64
}

// Apply validates the plan against the tester's shape, arms every
// pattern's events on the engine, and returns the driver. Call before
// running the simulation.
func Apply(eng *sim.Engine, target Target, plan Plan, cfg DriverConfig) (*Driver, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if cfg.Ports < 1 {
		return nil, fmt.Errorf("workload: driver needs at least 1 port")
	}
	if cfg.MTU < 1 {
		return nil, fmt.Errorf("workload: driver needs a positive MTU")
	}
	d := &Driver{eng: eng, target: target, plan: plan, cfg: cfg, nextFlow: DefaultFlowBase}
	// One independent stream per pattern, all derived from the driver
	// seed: pattern i's arrivals never depend on what pattern j drew.
	base := sim.NewRand(cfg.Seed)
	for i, pat := range plan.Patterns {
		rng := base.Split()
		var err error
		switch p := pat.(type) {
		case *Incast:
			err = d.armIncast(p)
		case *Flood:
			err = d.armFlood(p)
		case *Square:
			err = d.armLoad(p, p.Opts, rng)
		case *Saw:
			err = d.armLoad(p, p.Opts, rng)
		case *MMPP:
			err = d.armLoad(p, p.Opts, rng)
		case *Lognormal:
			err = d.armLognormal(p, rng)
		default:
			err = fmt.Errorf("unsupported pattern type %T", pat)
		}
		if err != nil {
			return nil, fmt.Errorf("workload: pattern %d (%s): %w", i, pat.Name(), err)
		}
	}
	return d, nil
}

// checkVictim bounds an explicit victim port against the tester.
func (d *Driver) checkVictim(victim int) error {
	if victim >= d.cfg.Ports {
		return fmt.Errorf("victim port %d outside [0,%d)", victim, d.cfg.Ports)
	}
	return nil
}

// armLoad drives open-loop flow arrivals under an envelope pattern with
// Lewis-Shedler thinning: candidate arrivals are proposed as a Poisson
// process at the envelope's peak flow rate, and each candidate survives
// with probability RateAt(now)/peak — a nonhomogeneous Poisson process
// whose intensity tracks the envelope exactly.
func (d *Driver) armLoad(p Pattern, o loadOpts, rng *sim.Rand) error {
	if o.Victim >= 0 {
		if err := d.checkVictim(o.Victim); err != nil {
			return err
		}
	}
	dist := o.dist()
	meanFlowBits := dist.Mean() * float64(packet.WireSize(d.cfg.MTU)) * 8
	peak := p.PeakRate()
	meanGap := sim.Seconds(meanFlowBits / float64(peak))
	var tick func()
	tick = func() {
		if accept := float64(p.RateAt(d.eng.Now())) / float64(peak); rng.Float64() < accept {
			d.startOne(dist, o, rng)
		}
		d.eng.Schedule(rng.Exp(meanGap), tick)
	}
	d.eng.Schedule(rng.Exp(meanGap), tick)
	return nil
}

// armLognormal drives a renewal arrival process with lognormal gaps whose
// mean offers the pattern's configured load.
func (d *Driver) armLognormal(p *Lognormal, rng *sim.Rand) error {
	if p.Opts.Victim >= 0 {
		if err := d.checkVictim(p.Opts.Victim); err != nil {
			return err
		}
	}
	dist := p.Opts.dist()
	meanFlowBits := dist.Mean() * float64(packet.WireSize(d.cfg.MTU)) * 8
	meanGap := sim.Seconds(meanFlowBits / float64(p.Rate))
	var tick func()
	tick = func() {
		d.startOne(dist, p.Opts, rng)
		d.eng.Schedule(p.nextGap(rng, meanGap), tick)
	}
	d.eng.Schedule(p.nextGap(rng, meanGap), tick)
	return nil
}

// startOne launches one pattern flow: size from the distribution, sender
// uniform over the ports, receiver the fan-in victim or a uniform other
// port. A refused start (BRAM exhausted mid-storm) is counted, not fatal:
// overload is exactly what patterns are for.
func (d *Driver) startOne(dist *SizeDist, o loadOpts, rng *sim.Rand) {
	size := dist.Sample(rng)
	tx := rng.Intn(d.cfg.Ports)
	rx := o.Victim
	if rx < 0 {
		rx = rng.Intn(d.cfg.Ports)
		if rx == tx {
			rx = (rx + 1) % d.cfg.Ports
		}
	}
	flow := d.nextFlow
	d.nextFlow++
	if err := d.target.StartFlow(flow, tx, rx, size); err != nil {
		d.skipped++
		return
	}
	d.started++
}

// armIncast fires a synchronized storm every period: fanin senders
// (cycling over the non-victim ports) each start one fixed-size flow at
// the victim in the same instant.
func (d *Driver) armIncast(p *Incast) error {
	if err := d.checkVictim(p.Victim); err != nil {
		return err
	}
	if d.cfg.Ports < 2 {
		return fmt.Errorf("incast needs at least 2 ports")
	}
	senders := make([]int, p.Fanin)
	for i := range senders {
		senders[i] = (p.Victim + 1 + i%(d.cfg.Ports-1)) % d.cfg.Ports
	}
	sim.NewTicker(d.eng, p.Period, func() {
		for _, tx := range senders {
			flow := d.nextFlow
			d.nextFlow++
			if err := d.target.StartFlow(flow, tx, p.Victim, p.SizePkts); err != nil {
				d.skipped++
				continue
			}
			d.started++
		}
	}).Start()
	return nil
}

// armFlood paces raw DATA injection at the flood envelope: one frame
// every Serialize(wire) at the current rate, sleeping to the next period
// boundary through silent phases. The flood flow is tester-external — no
// NIC state, no congestion control, no backoff — but it is routed,
// queued, ACKed, and dropped by the tested network like any other DATA.
func (d *Driver) armFlood(p *Flood) error {
	if err := d.checkVictim(p.Victim); err != nil {
		return err
	}
	if d.cfg.Ports < 2 {
		return fmt.Errorf("flood needs at least 2 ports")
	}
	flow := d.nextFlow
	d.nextFlow++
	if err := d.target.BindExternalFlow(flow, p.Victim); err != nil {
		return err
	}
	attacker := (p.Victim + 1) % d.cfg.Ports
	wire := packet.WireSize(d.cfg.MTU)
	var psn uint32
	var tick func()
	tick = func() {
		now := d.eng.Now()
		if r := p.RateAt(now); r > 0 {
			d.target.InjectData(flow, attacker, psn, d.cfg.MTU, p.ECT)
			psn++
			d.injected++
			d.eng.Schedule(r.Serialize(wire), tick)
			return
		}
		// Silent phase: wake exactly at the next period boundary.
		phase := sim.Duration(now) % p.Period
		d.eng.Schedule(p.Period-phase, tick)
	}
	d.eng.Schedule(0, tick)
	return nil
}

// Plan returns the driven plan.
func (d *Driver) Plan() Plan { return d.plan }

// FlowBase returns the first pattern flow ID; every flow the driver
// started has an ID in [FlowBase, NextFlow).
func (d *Driver) FlowBase() packet.FlowID { return DefaultFlowBase }

// NextFlow returns the next unallocated pattern flow ID.
func (d *Driver) NextFlow() packet.FlowID { return d.nextFlow }

// Started reports how many pattern flows were launched.
func (d *Driver) Started() uint64 { return d.started }

// Skipped reports how many pattern flow starts the tester refused
// (typically BRAM exhaustion at the height of a storm).
func (d *Driver) Skipped() uint64 { return d.skipped }

// Injected reports how many flood frames were sent.
func (d *Driver) Injected() uint64 { return d.injected }
