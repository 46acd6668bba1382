package scenario

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"marlin/internal/experiments"
	"marlin/internal/fleet"
)

// RunWith is Run with the fleet a sweep runs on. Each point is reps fleet
// jobs, and rows and checks come back in point order, the same at any
// worker count. Replicate 0 runs at the point's seed and replicate k at
// fleet.DeriveSeed(seed, "<point>/rep<k>"); the table then gives each
// metric's mean, min and max, and FCT percentiles of the merged
// completions. A failed run reads "error" in its row, with the cause in a
// note, and RunWith returns the report with an error. A script without
// sweep lines runs once and ignores both arguments.
func (s *Scenario) RunWith(opts fleet.Options, reps int) (*Report, error) {
	if len(s.Sweeps) == 0 {
		rep, vals, _, err := s.execute()
		if err == nil && len(s.Report) > 0 {
			rep.Table = s.newTable(1)
			row := make([]string, len(s.Report))
			for i, v := range vals[:len(s.Report)] {
				row[i] = cell(v)
			}
			rep.Table.AddRow(row...)
		}
		return rep, err
	}
	reps = max(reps, 1)
	points := fleet.Cartesian(s.Sweeps)
	var jobs []fleet.Job
	for _, pt := range points {
		p := *s
		p.Sweeps = nil
		if err := errors.Join(pt.Apply(&p.Spec), p.Spec.Validate()); err != nil {
			return nil, fmt.Errorf("sweep point %s: %w", pt.ID(), err)
		}
		jobs = append(jobs, fleet.Replicate(pt.ID(), reps, p.Spec.Seed, func(seed uint64) (*fleet.Output, error) {
			return p.point(seed, reps > 1)
		})...)
	}
	results, err := fleet.Run(jobs, opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{Elapsed: s.Horizon(), Table: s.newTable(reps)}
	for i, pt := range points {
		s.addPoint(rep, pt, results[i*reps:(i+1)*reps])
	}
	if n := fleet.Failed(results); n > 0 {
		return rep, fmt.Errorf("%d of %d sweep run(s) failed", n, len(results))
	}
	return rep, nil
}

// point runs one sweep point at seed. Its output is execute's values as
// exact strings, which unlike JSON numbers carry NaN and Inf through the
// fleet journal, and with keepFCTs the completions, for merged percentiles.
func (s *Scenario) point(seed uint64, keepFCTs bool) (*fleet.Output, error) {
	p := *s
	p.Spec.Seed = seed
	_, vals, fcts, err := p.execute()
	if err != nil {
		return nil, err
	}
	cells := make([]string, len(vals))
	for i, v := range vals {
		cells[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	out := &fleet.Output{Table: &experiments.Result{Rows: [][]string{cells}}}
	if keepFCTs {
		out.Samples = map[string][]float64{"fct_us": fcts}
	}
	return out, nil
}

// newTable starts the report table: a column per swept key, then one per
// metric, and with replicates its min and max (but for FCT percentiles).
func (s *Scenario) newTable(reps int) *experiments.Result {
	res := &experiments.Result{Name: "report", Title: "single run"}
	for _, ax := range s.Sweeps {
		res.Headers = append(res.Headers, ax.Key)
	}
	if len(s.Sweeps) > 0 {
		res.Title = "sweep over " + strings.Join(res.Headers, ", ")
	}
	for _, m := range s.Report {
		res.Headers = append(res.Headers, m)
		if reps > 1 && !isFCT(m) {
			res.Headers = append(res.Headers, m+"_min", m+"_max")
		}
	}
	return res
}

func isFCT(metric string) bool { return metric == "fct_p50_us" || metric == "fct_p99_us" }

// addPoint folds a point's runs into the report: one table row, and the
// checks of every run that completed, named by its job ID.
func (s *Scenario) addPoint(rep *Report, pt fleet.Point, runs []fleet.JobResult) {
	var expects []Step
	for _, st := range s.Steps {
		if st.Expect != nil {
			expects = append(expects, st)
		}
	}
	outs := make([]*fleet.Output, len(runs)) // the values as numbers, for fleet.Aggregate
	for i, r := range runs {
		if !r.OK() {
			rep.Table.Note("%s: attempt(s) %d FAILED: %s", r.ID, r.Attempts, r.Err)
			continue
		}
		outs[i] = &fleet.Output{Metrics: map[string]float64{}, Samples: r.Output.Samples}
		for j, cell := range r.Output.Table.Rows[0] {
			v, _ := strconv.ParseFloat(cell, 64)
			if j < len(s.Report) {
				if !math.IsNaN(v) {
					outs[i].Metrics[s.Report[j]] = v
				}
				continue
			}
			st := expects[j-len(s.Report)]
			rep.Checks = append(rep.Checks, CheckResult{Line: st.Line, Text: r.ID + ": " + st.Expect.String(),
				Measured: v, Pass: ops[st.Expect.Op](v, st.Expect.Value)})
		}
	}
	row := append([]string(nil), pt.Values...)
	if fleet.Failed(runs) == len(runs) {
		for len(row) < len(rep.Table.Headers) {
			row = append(row, "error")
		}
		rep.Table.AddRow(row...)
		return
	}
	stats := fleet.Aggregate(outs)
	for _, m := range s.Report {
		st, ok := stats[m]
		if !ok {
			st = fleet.Stat{Mean: math.NaN(), Min: math.NaN(), Max: math.NaN()}
		}
		switch {
		case len(runs) == 1:
			row = append(row, cell(st.Mean))
		case isFCT(m):
			v, p := math.NaN(), 0.5
			if m == "fct_p99_us" {
				p = 0.99
			}
			if cdf := fleet.MergedCDF(outs, "fct_us"); cdf.Len() > 0 {
				v = cdf.Percentile(p)
			}
			row = append(row, cell(v))
		default:
			row = append(row, cell(st.Mean), cell(st.Min), cell(st.Max))
		}
	}
	rep.Table.AddRow(row...)
}

// cell prints a table cell: "-" for a metric with nothing to measure (NaN,
// or no replicate measured it), an integral value in full, any other to
// six significant digits.
func cell(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}
