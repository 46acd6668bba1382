// Package wallclock_bad exercises the wallclock check: every host-clock
// read below must be flagged (the global math/rand draw is rngsource's).
package wallclock_bad

import (
	"math/rand"
	"time"
)

// Stamp reads the host clock and the global random source into model state.
func Stamp() int64 {
	t := time.Now()
	time.Sleep(time.Millisecond)
	return t.UnixNano() + rand.Int63()
}

// Elapsed measures host time.
func Elapsed(since time.Time) float64 {
	return time.Since(since).Seconds()
}
