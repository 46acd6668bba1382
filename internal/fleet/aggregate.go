package fleet

import (
	"math"

	"marlin/internal/measure"
)

// Aggregation across seed replicates: scalar metrics reduce to
// mean/min/max, and raw sample sets merge into one distribution before any
// percentile is read — averaging per-replicate percentiles would bias the
// tails, merging the underlying samples does not.

// Stat summarizes one metric across replicates.
type Stat struct {
	N    int
	Mean float64
	Min  float64
	Max  float64
}

// Aggregate reduces each metric present in the outputs to a Stat. Outputs
// may be nil (failed replicates); they are skipped.
func Aggregate(outputs []*Output) map[string]Stat {
	stats := make(map[string]Stat)
	sums := make(map[string]float64)
	for _, o := range outputs {
		if o == nil {
			continue
		}
		for k, v := range o.Metrics {
			s, ok := stats[k]
			if !ok {
				s = Stat{Min: math.Inf(1), Max: math.Inf(-1)}
			}
			s.N++
			s.Min = math.Min(s.Min, v)
			s.Max = math.Max(s.Max, v)
			stats[k] = s
			sums[k] += v
		}
	}
	for k, s := range stats {
		s.Mean = sums[k] / float64(s.N)
		stats[k] = s
	}
	return stats
}

// MergedCDF builds one empirical distribution for a sample key by merging
// each replicate's CDF (union of all samples).
func MergedCDF(outputs []*Output, key string) measure.CDF {
	cdfs := make([]measure.CDF, 0, len(outputs))
	for _, o := range outputs {
		if o == nil {
			continue
		}
		if s, ok := o.Samples[key]; ok {
			cdfs = append(cdfs, measure.NewCDF(s))
		}
	}
	return measure.MergeCDFs(cdfs...)
}
