package fuzzer

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"marlin/internal/fleet"
)

// CampaignOptions configure a fuzzing campaign.
type CampaignOptions struct {
	// N is how many configurations to generate and check.
	N int
	// Seed derives every configuration; the same seed reproduces the
	// same campaign byte-for-byte at any worker count.
	Seed uint64
	// Workers sizes the fleet pool (<= 0 means GOMAXPROCS).
	Workers int
	// Minimize delta-debugs each violating config to a minimal repro.
	Minimize bool
	// ReproDir, when set, receives one rendered scenario file per
	// violating config (minimized when Minimize is set).
	ReproDir string
	// Out receives the campaign report. Only simulation-derived values
	// are written — no wall-clock, no worker attribution — so output is
	// byte-identical for a given (N, Seed) at any parallelism.
	Out io.Writer
}

// CampaignResult summarises a campaign.
type CampaignResult struct {
	Configs    int
	Violations []Violation // all violations, campaign order
	Errors     int
	ReproFiles []string
}

// RunCampaign generates N seeded configs, checks them against every
// oracle on a fleet worker pool, and minimizes + renders any violations.
func RunCampaign(opts CampaignOptions) (*CampaignResult, error) {
	if opts.Out == nil {
		opts.Out = os.Stdout
	}
	if opts.N <= 0 {
		return nil, fmt.Errorf("fuzzer: campaign needs N > 0")
	}
	configs := make([]Config, opts.N)
	for i := range configs {
		configs[i] = Generate(opts.Seed, i)
	}

	// Phase 1: parallel oracle checks. Each job writes only its own
	// slot; fleet's OnResult hands results back in submission order, so
	// the report stays deterministic.
	type verdict struct {
		violations []Violation
		err        error
	}
	verdicts := make([]verdict, opts.N)
	jobs := make([]fleet.Job, opts.N)
	for i := range jobs {
		i := i
		jobs[i] = fleet.Job{
			ID: fmt.Sprintf("fuzz-%d-%d", opts.Seed, i),
			Run: func() (*fleet.Output, error) {
				vs, err := CheckAll(configs[i])
				verdicts[i] = verdict{vs, err}
				return &fleet.Output{Metrics: map[string]float64{"violations": float64(len(vs))}}, err
			},
		}
	}
	res := &CampaignResult{Configs: opts.N}
	onResult := func(i int, r fleet.JobResult) error {
		cfg := configs[i]
		topo := cfg.Spec.Topology
		if topo == "" {
			topo = "single"
		}
		head := fmt.Sprintf("cfg %04d seed=%d algo=%s topo=%s", i, cfg.Spec.Seed, cfg.Spec.Algorithm, topo)
		switch {
		case !r.OK():
			res.Errors++
			fmt.Fprintf(opts.Out, "%s ERROR %s\n", head, r.Err)
		case len(verdicts[i].violations) == 0:
			fmt.Fprintf(opts.Out, "%s ok\n", head)
		default:
			for _, v := range verdicts[i].violations {
				res.Violations = append(res.Violations, v)
				fmt.Fprintf(opts.Out, "%s VIOLATION %s\n", head, v)
			}
		}
		return nil
	}
	if _, err := fleet.Run(jobs, fleet.Options{Workers: opts.Workers, OnResult: onResult}); err != nil {
		return nil, err
	}

	// Phase 2: minimize and render repros for violating configs.
	for i := 0; i < opts.N; i++ {
		vs := verdicts[i].violations
		if len(vs) == 0 {
			continue
		}
		cfg, oracle := configs[i], vs[0].Oracle
		if opts.Minimize {
			cfg = Minimize(cfg, oracle)
		}
		script := cfg.Render(oracle)
		if opts.ReproDir != "" {
			name := filepath.Join(opts.ReproDir, fmt.Sprintf("fuzz-%d-%04d-%s.txt", opts.Seed, i, oracle))
			if err := os.WriteFile(name, []byte(script), 0o644); err != nil {
				return nil, fmt.Errorf("fuzzer: writing repro: %w", err)
			}
			res.ReproFiles = append(res.ReproFiles, name)
			fmt.Fprintf(opts.Out, "repro %04d %s -> %s\n", i, oracle, name)
		} else {
			fmt.Fprintf(opts.Out, "repro %04d %s:\n%s", i, oracle, script)
		}
	}

	bad := 0
	for i := range verdicts {
		if len(verdicts[i].violations) > 0 {
			bad++
		}
	}
	fmt.Fprintf(opts.Out, "%d configs checked: %d clean, %d with violations, %d errors (%d violations total)\n",
		opts.N, opts.N-bad-res.Errors, bad, res.Errors, len(res.Violations))
	return res, nil
}
