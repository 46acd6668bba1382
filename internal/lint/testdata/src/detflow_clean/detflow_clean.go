// Package detflow_clean holds map-range patterns maporder (and detflow)
// must accept: collect-then-sort, guarded selection, per-key writes, and
// associative integer accumulation.
package detflow_clean

import "sort"

// SortedKeys is the canonical collect-then-sort idiom, which maporder's
// sortedAfter exemption accepts.
func SortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// MaxValue selects under a guard; the result is order-independent.
func MaxValue(m map[string]int) int {
	best := 0
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

// Copy writes per-key entries; no shared last-writer-wins target.
func Copy(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// IntSum accumulates integers, which is associative and order-independent.
func IntSum(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum = sum + v
	}
	return sum
}
