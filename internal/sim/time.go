// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate every other Marlin component runs on: the
// programmable-switch model, the FPGA NIC model, the emulated tested network,
// and the workload generators all schedule work as timestamped events on a
// single shared queue. Events with equal timestamps fire in the order they
// were scheduled, so a run is a pure function of its inputs and RNG seed.
//
// Time is measured in integer picoseconds. Picosecond resolution keeps
// high-rate arithmetic exact: a 1024-byte frame serializes on a 100 Gbps link
// in exactly 81,920 ps, and an int64 of picoseconds spans about 106 days,
// far beyond any test horizon.
package sim

import (
	"fmt"
	"time"
)

// Time is an absolute simulation timestamp in picoseconds since the start of
// the run. The zero Time is the beginning of the simulation.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Forever is a timestamp later than any reachable simulation time. It is
// used as the "run without bound" horizon and as the canonical "not
// scheduled" sentinel for timers.
const Forever Time = 1<<63 - 1

// Add returns the timestamp d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from earlier to t.
func (t Time) Sub(earlier Time) Duration { return Duration(t - earlier) }

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Microseconds returns the time as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String formats the timestamp with an adaptive unit.
func (t Time) String() string { return Duration(t).String() }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds returns the duration as a floating-point number of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Nanoseconds returns the duration as a floating-point number of nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

// String formats the duration with an adaptive unit.
func (d Duration) String() string {
	switch abs := d; {
	case abs < 0:
		return "-" + (-d).String()
	case d < Nanosecond:
		return fmt.Sprintf("%dps", int64(d))
	case d < Microsecond:
		return fmt.Sprintf("%.3gns", d.Nanoseconds())
	case d < Millisecond:
		return fmt.Sprintf("%.4gus", d.Microseconds())
	case d < Second:
		return fmt.Sprintf("%.4gms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4gs", d.Seconds())
	}
}

// FromStd converts a time.Duration to a simulated Duration.
func FromStd(d time.Duration) Duration { return Duration(d.Nanoseconds()) * Nanosecond }

// Seconds builds a Duration from a floating-point number of seconds.
func Seconds(s float64) Duration { return Duration(s * float64(Second)) }

// Micros builds a Duration from a floating-point number of microseconds.
func Micros(us float64) Duration { return Duration(us * float64(Microsecond)) }
