// The sweep command is the paper's R2 use case ("find the optimal
// configuration by adjusting CC parameters") run as a fleet campaign. It
// is shorthand for the scenario script sweepArgs.script shows.
package main

import (
	"fmt"
	"io"
	"os"
	"runtime"

	"marlin"
	"marlin/internal/fleet"
	"marlin/internal/scenario"
)

// sweepArgs is what sweep takes beyond the configuration keys, which set
// the base every point starts from. script is the scenario it stands for:
//
//	set ...
//	sweep KEY v1,v2,...
//	at 0ms fanin size 20..400 loop
//	run <duration>
//	report total_gbps fct_p50_us fct_p99_us network_drops
type sweepArgs struct {
	script *scenario.Scenario
	fleet  marlin.FleetOptions // workers, timeout, retries, journal
	reps   int
	format string
}

func parseSweep(args []string) (marlin.TestConfig, sweepArgs, error) {
	cfg := marlin.TestConfig{Algorithm: "dctcp", Ports: 5, FlowsPerPort: 2, ECNThresholdPkts: 65, Seed: 1}
	var a sweepArgs
	var axes []fleet.Axis
	var dur marlin.Duration
	fs := keyFlags("sweep", &cfg)
	fs.Func("axis", "swept dimension key=v1,v2,... (repeatable; any configuration key, overriding the base flag)", func(s string) error {
		ax, err := fleet.ParseAxis(s)
		axes = append(axes, ax)
		return err
	})
	fs.IntVar(&a.fleet.Workers, "j", runtime.GOMAXPROCS(0), "parallel jobs (1 = sequential)")
	fs.IntVar(&a.reps, "reps", 1, "seed replicates per sweep point")
	durationVar(fs, &dur, 15*marlin.Millisecond, "simulated horizon per point")
	fs.DurationVar(&a.fleet.Timeout, "timeout", 0, "wall-clock timeout per job attempt (0 = none)")
	fs.IntVar(&a.fleet.Retries, "retries", 0, "extra attempts for failed jobs")
	fs.StringVar(&a.fleet.Journal, "journal", "", "JSONL checkpoint file; rerunning resumes it")
	formatVar(fs, &a.format)
	if err := fs.Parse(args); err != nil {
		return cfg, a, err
	}
	if len(axes) == 0 {
		return cfg, a, fmt.Errorf("sweep: need at least one -axis key=v1,v2,... (any configuration key; see 'marlinctl help')")
	}
	if a.reps < 1 {
		return cfg, a, fmt.Errorf("sweep: -reps must be >= 1")
	}
	clearPresetECN(fs, &cfg)
	s := scenario.Scenario{
		Spec:    cfg,
		Sweeps:  axes,
		Actions: []scenario.Action{{Kind: "fanin", Size: 20, SizeMax: 400, Loop: true}},
		Steps:   []scenario.Step{{Run: dur}},
		Report:  []string{"total_gbps", "fct_p50_us", "fct_p99_us", "network_drops"},
	}
	var err error
	if a.script, err = scenario.Parse(s.String()); err != nil {
		return cfg, a, fmt.Errorf("sweep: %w", err)
	}
	return cfg, a, nil
}

func cmdSweep(w io.Writer, args []string) error {
	_, a, err := parseSweep(args)
	if err != nil {
		return err
	}
	a.fleet.Progress = os.Stderr
	rep, err := a.script.RunWith(a.fleet, a.reps)
	if rep != nil {
		if err := emit(w, rep.Table, a.format); err != nil {
			return err
		}
	}
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	return nil
}
