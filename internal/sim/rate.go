package sim

import (
	"fmt"
	"math"
)

// Rate is a data rate in bits per second. It is shared by the link
// emulator, the switch model, and the FPGA pacing timers so that
// serialization arithmetic is done one way everywhere.
type Rate int64

// Common rates.
const (
	BitPerSecond Rate = 1
	Kbps              = 1000 * BitPerSecond
	Mbps              = 1000 * Kbps
	Gbps              = 1000 * Mbps
	Tbps              = 1000 * Gbps
)

// Serialize returns the time to put bytes on the wire at rate r.
// The result is rounded up to a whole picosecond so that back-to-back
// transmissions never overlap.
func (r Rate) Serialize(bytes int) Duration {
	if r <= 0 {
		panic("sim: serialize at non-positive rate")
	}
	bits := int64(bytes) * 8
	// duration_ps = bits / (r bits/s) * 1e12 ps/s, rounded up.
	ps := (bits*int64(Second) + int64(r) - 1) / int64(r)
	return Duration(ps)
}

// PacketsPerSecond returns how many frames of the given size r carries per
// second at line rate.
func (r Rate) PacketsPerSecond(bytes int) float64 {
	return float64(r) / (float64(bytes) * 8)
}

// Interval returns the steady-state gap between frame starts when sending
// pps packets per second, rounded to the nearest picosecond. It is the
// primitive behind the FPGA RX/TX timers.
//
// Rounding matters: pps values derived from a rate and frame size (e.g.
// 148.8 Mpps for 64+20-byte SCHE frames at 100 Gbps) have an exactly
// integral period in picoseconds, but the float64 division can land one ULP
// below it. Truncation then shaves a picosecond off every tick, so paced
// timers run systematically fast relative to Rate.Serialize's round-up;
// round-to-nearest recovers the exact period.
func Interval(pps float64) Duration {
	if pps <= 0 {
		panic("sim: interval for non-positive pps")
	}
	return Duration(math.Round(float64(Second) / pps))
}

// String formats the rate with an adaptive unit.
func (r Rate) String() string {
	switch {
	case r < 0:
		return "-" + (-r).String()
	case r < Kbps:
		return fmt.Sprintf("%dbps", int64(r))
	case r < Mbps:
		return fmt.Sprintf("%.4gKbps", float64(r)/float64(Kbps))
	case r < Gbps:
		return fmt.Sprintf("%.4gMbps", float64(r)/float64(Mbps))
	case r < Tbps:
		return fmt.Sprintf("%.4gGbps", float64(r)/float64(Gbps))
	default:
		return fmt.Sprintf("%.4gTbps", float64(r)/float64(Tbps))
	}
}

// Ticker fires a callback at a fixed period until stopped. It is the shape
// of every hardware timer in the models (TEMP slot clocks, RX/TX pacing
// timers, DCQCN rate timers).
type Ticker struct {
	engine *Engine
	period Duration
	fn     Func
	tick   Func // the scheduled body, built once so a tick allocates nothing
	handle Handle
	active bool
}

// NewTicker creates a stopped ticker; call Start to arm it.
func NewTicker(e *Engine, period Duration, fn Func) *Ticker {
	if period <= 0 {
		panic("sim: ticker with non-positive period")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.tick = func() {
		if !t.active {
			return
		}
		// Re-arm before the callback so that the callback can Stop the
		// ticker and have that stick.
		t.arm()
		t.fn()
	}
	return t
}

// Start arms the ticker; the first tick fires one period from now.
// Starting a running ticker is a no-op.
func (t *Ticker) Start() {
	if t.active {
		return
	}
	t.active = true
	t.arm()
}

func (t *Ticker) arm() {
	t.handle = t.engine.Schedule(t.period, t.tick)
}

// Stop disarms the ticker. Pending ticks are cancelled.
func (t *Ticker) Stop() {
	if !t.active {
		return
	}
	t.active = false
	t.handle.Cancel()
}

// Active reports whether the ticker is armed.
func (t *Ticker) Active() bool { return t.active }

// Period returns the tick period.
func (t *Ticker) Period() Duration { return t.period }
