// Package simunits_clean holds unit-correct patterns: the visible scaling
// idiom, the designated conversion boundaries, and unit-preserving
// arithmetic. No check reports anything.
package simunits_clean

import (
	"time"

	"marlin/internal/sim"
)

// Scaled rescales nanoseconds to picoseconds the visible way.
func Scaled(d time.Duration) sim.Duration {
	return sim.Duration(d.Nanoseconds()) * sim.Nanosecond
}

// Back rescales picoseconds to nanoseconds the visible way.
func Back(t sim.Time) time.Duration {
	return time.Duration(t) * time.Nanosecond / 1000
}

// Boundary uses the designated conversion helpers.
func Boundary(d time.Duration) sim.Duration {
	return sim.FromStd(d)
}

// SameFamily does arithmetic within one unit family.
func SameFamily(a, b sim.Time) sim.Duration {
	return sim.Duration(a - b)
}

// Untagged numerics carry no unit and convert freely.
func Untagged(n int64) sim.Duration {
	return sim.Duration(n)
}

// HalfLife divides a tagged value by a constant; the tag survives but the
// scaling license means no report.
func HalfLife(d time.Duration) int64 {
	ns := d.Nanoseconds()
	return ns / 2
}
