// Package maporder_clean holds the deterministic map-iteration idioms the
// maporder check must not flag: collect-keys-then-sort, per-key
// accumulation, and commutative integer reduction.
package maporder_clean

import "sort"

// Keys is the canonical sorted-iteration idiom.
func Keys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// SortedIDs collects then sorts through sort.Slice.
func SortedIDs(m map[uint32]bool) []uint32 {
	var ids []uint32
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// SumPerKey accumulates into a distinct cell per key, which is
// order-insensitive even for floats.
func SumPerKey(outs []map[string]float64) map[string]float64 {
	sums := make(map[string]float64)
	for _, o := range outs {
		for k, v := range o {
			sums[k] += v
		}
	}
	return sums
}

// Count reduces with a commutative integer op.
func Count(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// MaxVal tracks an order-insensitive maximum.
func MaxVal(m map[int]int) int {
	best := 0
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

// Span keeps a running min and max per key in a struct declared inside the
// loop: the fields are per-iteration state, and min/max do not depend on the
// visiting order.
type Span struct{ Min, Max float64 }

func Spans(m map[string]float64, spans map[string]Span) {
	for k, v := range m {
		s := spans[k]
		s.Min = min(s.Min, v)
		s.Max = max(s.Max, v)
		spans[k] = s
	}
}
