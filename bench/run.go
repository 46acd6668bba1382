package main

import (
	"fmt"
	"maps"
	"runtime"
	"runtime/debug"
	"time"
)

// options are one invocation's settings.
type options struct {
	seed      uint64
	seconds   float64 // measured wall time per workload
	trace     bool
	quick     bool
	traceFile string // Chrome trace-event output of the traced pass
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome: the record -out appends and compare
// reads. Metrics holds the end-to-end metrics and the count-kind per-layer
// metrics, plus the rest of the per-layer ledger when the traced pass ran.
type result struct {
	Workload     string                 `json:"workload"`
	Seed         uint64                 `json:"seed"`
	Quick        bool                   `json:"quick,omitempty"`
	Trace        bool                   `json:"trace"`
	Reps         int                    `json:"reps"`
	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	FailedChecks []string               `json:"failed_checks,omitempty"`
	SimDigest    string                 `json:"sim_digest"`
	GoVersion    string                 `json:"go"`
	NProc        int                    `json:"nproc"`
	Metrics      map[string]metricValue `json:"metrics"`
}

// runRep runs one rep of either workload shape. Every rep starts the way a
// fresh process would, from a collected heap handed back to the OS: what the
// previous rep left behind would otherwise set this one's GC pacing, and the
// physical pages the first rep happened to get would stay with the whole
// run, so reps would drift in blocks instead of scattering around one value.
func (w *workload) runRep(seed uint64, o repOpts) (*rep, error) {
	debug.FreeOSMemory()
	if w.sweep != nil {
		return w.sweep.run(seed, o)
	}
	return w.steady.run(seed, o)
}

// runWorkload measures one workload: untraced reps until the measured
// windows add up to the time budget, then, with -trace, one traced rep, the
// layer kernels and the shard comparison reps.
func runWorkload(w *workload, o options) (*result, error) {
	res := &result{
		Workload: w.name, Seed: o.seed, Quick: o.quick, Trace: o.trace,
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		Metrics: map[string]metricValue{},
	}
	// The traced pass shares the run's time budget with the untraced reps
	// it is compared against.
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2
	}
	var (
		reps     []*rep
		measured time.Duration
	)
	for len(reps) == 0 || (!o.quick && measured < budget) {
		r, err := w.runRep(o.seed, repOpts{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		reps = append(reps, r)
		measured += r.wall
	}
	res.Reps = len(reps)
	res.SimDigest = reps[0].digest

	var setups, nsPkt, allocs, heaps []float64
	for _, r := range reps {
		setups = append(setups, r.setup.Seconds())
		nsPkt = append(nsPkt, r.nsPerPkt())
		allocs = append(allocs, ratio(float64(r.mallocs), float64(r.delta[cDataTx])))
		heaps = append(heaps, r.heapLiveMiB)
	}
	heapLive := median(heaps)
	var heapPerTester float64
	if w.sweep != nil {
		var err error
		if heapLive, heapPerTester, err = w.sweep.memoryRound(o.seed); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	vals := countMetrics(reps[0], w.txPorts())
	vals["setup_s"] = median(setups)
	vals["host_ns_per_data_pkt"] = median(nsPkt)
	vals["allocs_per_data_pkt"] = median(allocs)
	vals["heap_live_mib"] = heapLive
	for _, d := range endToEnd {
		res.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}

	all := reps
	if o.trace {
		traced, layer, err := tracedPass(w, o, reps, vals, heapPerTester)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		all = append(all, traced)
		maps.Copy(vals, layer)
	}
	// The count-kind metrics cost nothing, so every record carries them;
	// the rest of the ledger needs the traced pass.
	for _, d := range perLayer {
		v, ok := vals[d.name]
		if ok {
			res.Metrics[d.name] = metricValue{v, d.unit}
		} else if o.trace {
			return nil, fmt.Errorf("%s: per-layer metric %s was not measured", w.name, d.name)
		}
	}

	// Operations: every output check of every rep, plus one check that all
	// reps of this workload and seed simulated the same thing.
	same := true
	for _, r := range all {
		same = same && r.digest == res.SimDigest && r.delta == all[0].delta
		for _, c := range r.checks {
			res.Attempted++
			if !c.ok {
				res.Failed++
				res.FailedChecks = append(res.FailedChecks, c.name+": "+c.detail)
			}
		}
	}
	res.Attempted++
	if !same {
		res.Failed++
		res.FailedChecks = append(res.FailedChecks, "sim_digest: reps of one workload and seed differ")
	}
	res.Correct = res.Failed == 0
	return res, nil
}
