// Package simtime_clean keeps its exported API on the simulated clock; no
// check reports anything.
package simtime_clean

import "marlin/internal/sim"

// Config carries simulated-clock units.
type Config struct {
	Deadline sim.Time
	RTO      sim.Duration
}

// Wait keeps the exported API on the simulated clock.
func Wait(d sim.Duration) sim.Duration { return d }
