package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"marlin"
)

// cmdFuzz runs an invariant-fuzzing campaign: N deterministic
// configurations derived from -seed, each executed and checked against
// the tester's global oracles. Everything printed to stdout derives from
// the simulation alone, so the report is byte-identical for a given
// (-n, -seed) at any -j. A nonzero exit distinguishes found violations
// (exit 1 via the returned error) from a clean campaign.
func cmdFuzz(args []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
	n := fs.Int("n", 100, "number of configurations to generate and check")
	seed := fs.Uint64("seed", 1, "campaign seed (derives every configuration)")
	workers := fs.Int("j", runtime.GOMAXPROCS(0), "parallel oracle-check jobs (1 = sequential)")
	minimize := fs.Bool("minimize", true, "delta-debug violating configs to minimal repros")
	reproDir := fs.String("repro", "", "directory for repro scenario files (default: print inline)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *reproDir != "" {
		if err := os.MkdirAll(*reproDir, 0o755); err != nil {
			return err
		}
	}
	res, err := marlin.RunFuzzCampaign(marlin.FuzzCampaignOptions{
		N:        *n,
		Seed:     *seed,
		Workers:  *workers,
		Minimize: *minimize,
		ReproDir: *reproDir,
		Out:      os.Stdout,
	})
	if err != nil {
		return err
	}
	if len(res.Violations) > 0 || res.Errors > 0 {
		return fmt.Errorf("fuzz: %d violation(s), %d error(s)", len(res.Violations), res.Errors)
	}
	return nil
}
