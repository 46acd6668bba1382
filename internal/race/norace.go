//go:build !race

// Package race reports whether the binary was built with the race detector,
// for tests that count allocations: the race runtime allocates shadow state
// and makes sync.Pool drop a share of what is put back, so exact
// allocation-count assertions only hold without it.
package race

// Enabled is true in -race builds.
const Enabled = false
