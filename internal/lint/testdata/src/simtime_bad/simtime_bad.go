// Package simtime_bad holds exported signatures and types in host-time
// units, the deleted simtime check's class: no surviving check reports
// them, since in real code such an API fails to compile against its callers.
package simtime_bad

import "time"

// Config is an exported model type carrying host-time units.
type Config struct {
	Deadline time.Time
	RTO      time.Duration
}

// Wait is an exported signature with host-time parameter and result.
func Wait(d time.Duration) time.Duration {
	return d
}

// internalOnly is unexported and must not be flagged.
func internalOnly(d time.Duration) time.Duration { return d }
