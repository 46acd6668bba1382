// The sweep command is the paper's R2 use case ("find the optimal
// configuration by adjusting CC parameters") run as a fleet campaign: the
// cartesian product of -axis dimensions, optionally replicated across
// derived seeds, executed across all cores, checkpointed to a journal, and
// aggregated into one table through the experiment formatters.
package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"marlin"
	"marlin/internal/fleet"
)

// axisList collects repeated -axis flags.
type axisList []fleet.Axis

func (a *axisList) String() string {
	parts := make([]string, len(*a))
	for i, ax := range *a {
		parts[i] = ax.Key + "=" + strings.Join(ax.Values, ",")
	}
	return strings.Join(parts, " ")
}

func (a *axisList) Set(s string) error {
	ax, err := fleet.ParseAxis(s)
	if err != nil {
		return err
	}
	*a = append(*a, ax)
	return nil
}

// sweepArgs is what sweep takes beyond the configuration keys, which set
// the base every point starts from.
type sweepArgs struct {
	axes            axisList
	workers, reps   int
	dur, timeout    time.Duration
	retries         int
	journal, format string
}

func parseSweep(args []string) (marlin.TestConfig, sweepArgs, error) {
	// -seed is the campaign seed: per-job seeds derive from it.
	cfg := marlin.TestConfig{Algorithm: "dctcp", Ports: 5, FlowsPerPort: 2, ECNThresholdPkts: 65, Seed: 1}
	var a sweepArgs
	fs := keyFlags("sweep", &cfg)
	fs.Var(&a.axes, "axis", "swept dimension key=v1,v2,... (repeatable; any configuration key, overriding the base flag)")
	fs.IntVar(&a.workers, "j", runtime.GOMAXPROCS(0), "parallel jobs (1 = sequential)")
	fs.IntVar(&a.reps, "reps", 1, "seed replicates per sweep point")
	fs.DurationVar(&a.dur, "duration", 15*time.Millisecond, "simulated horizon per point")
	fs.DurationVar(&a.timeout, "timeout", 0, "wall-clock timeout per job attempt (0 = none)")
	fs.IntVar(&a.retries, "retries", 0, "extra attempts for failed jobs")
	fs.StringVar(&a.journal, "journal", "", "JSONL checkpoint file; rerunning resumes it")
	fs.StringVar(&a.format, "format", "text", "output format: text, json, or csv")
	if err := fs.Parse(args); err != nil {
		return cfg, a, err
	}
	if err := checkFormat(a.format); err != nil {
		return cfg, a, err
	}
	if len(a.axes) == 0 {
		return cfg, a, fmt.Errorf("sweep: need at least one -axis key=v1,v2,... (any configuration key; see 'marlinctl help')")
	}
	if a.reps < 1 {
		return cfg, a, fmt.Errorf("sweep: -reps must be >= 1")
	}
	return cfg, a, nil
}

func cmdSweep(args []string) error {
	base, a, err := parseSweep(args)
	if err != nil {
		return err
	}
	horizon := marlin.Duration(a.dur.Nanoseconds()) * marlin.Nanosecond

	points := fleet.Cartesian(a.axes)
	var jobs []marlin.FleetJob
	for _, pt := range points {
		cfg := base
		if err := pt.Apply(&cfg); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		if err := marlin.Validate(cfg); err != nil {
			return fmt.Errorf("sweep: point %s: %w", pt.ID(), err)
		}
		jobs = append(jobs, fleet.Replicate(pt.ID(), a.reps, base.Seed,
			func(seed uint64) (*marlin.FleetOutput, error) {
				return runSweepPoint(cfg, horizon, seed)
			})...)
	}

	start := time.Now() //marlin:allow wallclock -- "(Ns wall)" banner; host-side UX, not model state
	results, err := marlin.RunFleet(jobs, marlin.FleetOptions{
		Workers:  a.workers,
		Timeout:  a.timeout,
		Retries:  a.retries,
		Journal:  a.journal,
		Progress: os.Stderr,
	})
	if err != nil {
		return err
	}

	res := sweepTable(a.axes, points, results, a.reps)
	res.Note("workload: closed-loop uniform(20,400)-pkt flows fanning in to the last port; base config %d flows/sender, %d ports (axes may override), %v horizon",
		base.FlowsPerPort, base.Ports, a.dur)
	res.Note("campaign: seed %d, %d replicate(s)/point, %d worker(s)", base.Seed, a.reps, a.workers)
	if err := emit(res, a.format); err != nil {
		return err
	}
	if a.format == "text" {
		fmt.Printf("(%.1fs wall)\n", time.Since(start).Seconds()) //marlin:allow wallclock -- wall-time banner; host-side UX
	}
	if nf := fleet.Failed(results); nf > 0 {
		return fmt.Errorf("sweep: %d job(s) failed", nf)
	}
	return nil
}

// runSweepPoint deploys one configuration and drives the fan-in closed-loop
// workload over it, reporting goodput, FCT percentiles, and drops. Flow
// restarts happen inside the simulation's OnComplete hook; errors there
// propagate out through the job result instead of aborting the process.
func runSweepPoint(cfg marlin.TestConfig, horizon marlin.Duration, seed uint64) (*marlin.FleetOutput, error) {
	flows := cfg.FlowsPerPort
	if flows < 1 {
		flows = 1
	}
	cfg.FlowsPerPort = 0 // flows are driven closed-loop below, not auto-started
	cfg.Seed = seed
	t, err := marlin.NewTester(cfg)
	if err != nil {
		return nil, err
	}
	senders := t.DataPorts() - 1
	if senders < 1 {
		return nil, fmt.Errorf("sweep: need at least 2 data ports for a fan-in")
	}
	dist := marlin.UniformSize(20, 400)
	rng := marlin.NewRand(seed)
	flowPort := make(map[marlin.FlowID]int)
	var cbErr error
	startFlow := func(flow marlin.FlowID) {
		if err := t.StartFlow(flow, flowPort[flow], senders, dist.Sample(rng)); err != nil && cbErr == nil {
			cbErr = err
		}
	}
	t.OnComplete(func(flow marlin.FlowID, _ marlin.Duration) {
		if cbErr == nil {
			startFlow(flow)
		}
	})
	var id marlin.FlowID
	for p := 0; p < senders; p++ {
		for k := 0; k < flows; k++ {
			flowPort[id] = p
			startFlow(id)
			id++
		}
	}
	t.RunFor(horizon)
	if cbErr != nil {
		return nil, fmt.Errorf("restart flow: %w", cbErr)
	}
	fcts := t.FCTMicros()
	cdf := marlin.NewCDF(fcts)
	goodput := float64(t.Registers().Switch.DataTxBytes) * 8 / horizon.Seconds() / 1e9
	return &marlin.FleetOutput{
		Metrics: map[string]float64{
			"goodput_gbps": goodput,
			"p50_fct_us":   cdf.Percentile(0.5),
			"p99_fct_us":   cdf.Percentile(0.99),
			"drops":        float64(t.Losses().NetworkDrops),
			"completions":  float64(len(fcts)),
		},
		Samples: map[string][]float64{"fct_us": fcts},
	}, nil
}

// sweepTable folds the per-job results back into one experiment-style table:
// one row per sweep point, replicates aggregated as mean[min..max] for
// goodput and as percentiles of the merged FCT distribution.
func sweepTable(axes []fleet.Axis, points []fleet.Point, results []marlin.FleetJobResult, reps int) *marlin.ExperimentResult {
	headers := make([]string, 0, len(axes)+5)
	for _, ax := range axes {
		headers = append(headers, ax.Key)
	}
	headers = append(headers, "goodput_gbps")
	if reps > 1 {
		headers = append(headers, "goodput_min", "goodput_max")
	}
	headers = append(headers, "p50_fct_us", "p99_fct_us", "drops")

	axdesc := axisList(axes)
	res := &marlin.ExperimentResult{
		Name:    "sweep",
		Title:   "configuration sweep over " + axdesc.String(),
		Headers: headers,
		Metrics: make(map[string]float64),
	}
	for i, pt := range points {
		group := results[i*reps : (i+1)*reps]
		outs := fleet.Outputs(group)
		stats := fleet.Aggregate(outs)
		cdf := fleet.MergedCDF(outs, "fct_us")

		row := append([]string(nil), pt.Values...)
		ok := 0
		for _, r := range group {
			if r.OK() {
				ok++
			} else {
				res.Note("%s: attempt(s) %d FAILED: %s", r.ID, r.Attempts, r.Err)
			}
		}
		if ok == 0 {
			for len(row) < len(headers) {
				row = append(row, "error")
			}
			res.AddRow(row...)
			continue
		}
		gp := stats["goodput_gbps"]
		p50, p99 := cdf.Percentile(0.5), cdf.Percentile(0.99)
		row = append(row, fmt.Sprintf("%.1f", gp.Mean))
		if reps > 1 {
			row = append(row, fmt.Sprintf("%.1f", gp.Min), fmt.Sprintf("%.1f", gp.Max))
		}
		row = append(row,
			fmt.Sprintf("%.1f", p50),
			fmt.Sprintf("%.1f", p99),
			fmt.Sprintf("%.1f", stats["drops"].Mean))
		res.AddRow(row...)

		id := pt.ID()
		res.Metrics[id+"/goodput_gbps"] = gp.Mean
		res.Metrics[id+"/p50_fct_us"] = p50
		res.Metrics[id+"/p99_fct_us"] = p99
		res.Metrics[id+"/drops"] = stats["drops"].Mean
	}
	return res
}
