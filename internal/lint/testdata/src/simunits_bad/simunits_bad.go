// Package simunits_bad holds the deleted simunits check's class: values
// moved between the nanosecond (time.Duration) and picosecond
// (sim.Time/sim.Duration) worlds without scaling. No survivor reports them.
package simunits_bad

import (
	"time"

	"marlin/internal/sim"
)

// DeadlineFromStd stuffs a nanosecond count into a picosecond type.
func DeadlineFromStd(d time.Duration) sim.Time {
	ns := d.Nanoseconds()
	return sim.Time(ns)
}

// StdFromSim reinterprets picoseconds as nanoseconds.
func StdFromSim(t sim.Time) time.Duration {
	return time.Duration(t)
}

// Mixed compares a picosecond count against a nanosecond count.
func Mixed(t sim.Time, d time.Duration) bool {
	return int64(t) < d.Nanoseconds()
}

// nanos returns a nanosecond count.
func nanos(d time.Duration) int64 {
	return d.Nanoseconds()
}

// ViaHelper launders the nanosecond count through a local helper and an
// intermediate variable before the unscaled conversion.
func ViaHelper(d time.Duration) sim.Duration {
	v := nanos(d)
	return sim.Duration(v)
}

// CoarseUnits converts a second count straight to sim time.
func CoarseUnits(d time.Duration) sim.Duration {
	s := d.Seconds()
	return sim.Duration(s)
}
