package drill_bad

// BarScale is M2: a histogram's bar scale keeps the last-visited bucket's
// count instead of the largest, so the rendered bars change from run to run.
func BarScale(buckets map[int]int) int {
	maxN := 0
	for _, n := range buckets {
		maxN = n
	}
	return maxN
}
