// Command marlinctl is Marlin's control-plane CLI: it lists and runs the
// paper-reproduction experiments and drives ad-hoc tests against the
// simulated tester.
//
// Usage:
//
//	marlinctl list
//	marlinctl run <experiment> [-scale N] [-seed N] [-format text|json|csv|md]
//	marlinctl all [-scale N] [-seed N] [-j N] [-format text|json|csv|md]
//	marlinctl test  [KEYS] [-duration 5ms] [-fanin] [-pcap FILE]
//	marlinctl bench [KEYS] [-duration 5ms] [-fanin] [-reps N] [-cpuprofile FILE] ...
//	marlinctl dot   [KEYS]
//	marlinctl sweep [KEYS] -axis ecn=8,65,200 [-axis algo=dctcp,dcqcn] [-reps N]
//	               [-j N] [-journal FILE] [-timeout D] [-retries N] [-format F]
//	marlinctl script <file>...
//	marlinctl fuzz [-n N] [-seed S] [-j N] [-minimize] [-repro DIR]
//
// KEYS is one flag per configuration key of marlin.TestConfig (-algo, -ports,
// -ecn, -aqm, -topology, -shards, -seed, ...), declared once beside
// controlplane.Spec for these flags, scenario `set` lines and sweep axes
// alike; "marlinctl help" prints the table. sweep is shorthand for a
// scenario script with sweep lines (see sweep.go).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"marlin"
	"marlin/internal/scenario"
	"marlin/internal/spec"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "run":
		err = cmdRun(os.Args[2:])
	case "all":
		err = cmdAll(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Stdout, os.Args[2:])
	case "test":
		err = cmdTest(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	case "script":
		err = cmdScript(os.Args[2:])
	case "fuzz":
		err = cmdFuzz(os.Args[2:])
	case "dot":
		err = cmdDot(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "marlinctl: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "marlinctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `marlinctl — Marlin network-tester control plane

commands:
  list                      list reproducible tables/figures
  run <experiment> [flags]  regenerate one table/figure
  all [flags]               regenerate every table/figure (parallel with -j)
  sweep [flags]             run a parameter-sweep campaign across all cores
                            (shorthand for a scenario script with sweep lines)
  test [flags]              run an ad-hoc CC test
  bench [flags]             run a fixed workload under the Go profilers
  script <file>...          run packetdrill-style scenario scripts
  fuzz [flags]              run an invariant-fuzzing campaign
  dot [flags]               print the wired topology as Graphviz DOT

run/all flags: -scale N (stretch toward paper scale), -seed N, -format text|json|csv|md
               all also takes -j N (parallel jobs; -j 1 = sequential)
fuzz flags:    -n N (configs) -seed S -j N -minimize -repro DIR
               report is byte-identical for a given (-n, -seed) at any -j
test, bench, dot and sweep take the configuration keys below as flags, plus
their own ("marlinctl <command> -h" lists both, with the command's defaults);
sweep varies any of them with -axis key=v1,v2,... and scenario scripts set
them with "set KEY VALUE".
topologies:    dumbbell, leafspine:LxS, fattree:K, parkinglot:N

configuration keys:
`)
	var cfg marlin.TestConfig
	fs := keyFlags("", &cfg)
	fs.SetOutput(os.Stderr)
	fs.PrintDefaults()
}

// keyFlags starts a command's flag set with one flag per configuration key
// (controlplane's knob table), each writing into cfg; what cfg holds on
// entry is the command's default for that key.
func keyFlags(cmd string, cfg *marlin.TestConfig) *flag.FlagSet {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	cfg.BindFlags(fs)
	return fs
}

// adhocDefaults is the configuration test and bench start from: step ECN
// at the paper's K (which -aqm replaces), and DCQCN's timers compressed for
// millisecond horizons (the short-horizon convention, see EXPERIMENTS.md).
func adhocDefaults() marlin.TestConfig {
	return marlin.TestConfig{Algorithm: "dctcp", Ports: 4, FlowsPerPort: 1, AQM: "ecn:k=65", DCQCNTimeScale: 30, Seed: 1}
}

// durationVar binds -duration to *p, parsed by spec.Duration as a
// scenario's run line is: a negative or overflowing horizon is refused.
func durationVar(fs *flag.FlagSet, p *marlin.Duration, def marlin.Duration, usage string) {
	*p = def
	fs.Func("duration", usage+" (default "+spec.FormatDuration(def)+")", func(s string) (err error) {
		*p, err = spec.Duration(s)
		return err
	})
}

// startFlows starts perPort open-ended flows on every sender port — port p
// to port p, or with fanin every port but the last into the last — and
// returns how many it started (flow IDs 0..n-1).
func startFlows(t *marlin.Tester, perPort int, fanin bool) (marlin.FlowID, error) {
	senders := t.DataPorts()
	if fanin {
		senders-- // the last port only receives
	}
	var id marlin.FlowID
	for p := 0; p < senders; p++ {
		rx := p
		if fanin {
			rx = senders
		}
		for k := 0; k < perPort; k++ {
			if err := t.StartFlow(id, p, rx, 0); err != nil {
				return id, err
			}
			id++
		}
	}
	return id, nil
}

func cmdList() error {
	fmt.Println("experiments:")
	for _, name := range marlin.Experiments() {
		fmt.Printf("  %-20s %s\n", name, marlin.DescribeExperiment(name))
	}
	fmt.Println("\nalgorithms:")
	for _, name := range marlin.Algorithms() {
		fmt.Printf("  %s\n", name)
	}
	return nil
}

// addExpFlags registers the flags run and all share; callers parse the set
// (possibly after adding their own flags) and then read the pointers.
func addExpFlags(fs *flag.FlagSet) (scale *float64, seed *uint64, format *string) {
	scale = fs.Float64("scale", 1, "scale factor toward paper scale")
	seed = fs.Uint64("seed", 0, "random seed (0 = default)")
	format = new(string)
	formatVar(fs, format)
	return scale, seed, format
}

// formats maps each -format value to its renderer.
var formats = map[string]func(*marlin.ExperimentResult, io.Writer) error{
	"text": func(r *marlin.ExperimentResult, w io.Writer) error { r.Fprint(w); return nil },
	"json": (*marlin.ExperimentResult).FprintJSON,
	"csv":  (*marlin.ExperimentResult).FprintCSV,
	"md":   (*marlin.ExperimentResult).FprintMarkdown,
}

// formatVar binds -format to *p, refusing a value emit cannot render.
func formatVar(fs *flag.FlagSet, p *string) {
	*p = "text"
	fs.Func("format", "output format: text, json, csv, or md (Markdown) (default text)", func(s string) error {
		if formats[s] == nil {
			return fmt.Errorf("unknown -format %q", s)
		}
		*p = s
		return nil
	})
}

func emit(w io.Writer, res *marlin.ExperimentResult, format string) error {
	return formats[format](res, w)
}

func cmdRun(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("run: need an experiment name (see 'marlinctl list')")
	}
	name := args[0]
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	scale, seed, format := addExpFlags(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	opts := marlin.ExperimentOptions{Scale: *scale, Seed: *seed}
	start := time.Now() //marlin:allow wallclock -- "(Ns wall)" banner; host-side UX, not model state
	res, err := marlin.RunExperiment(name, opts)
	if err != nil {
		return err
	}
	if err := emit(os.Stdout, res, *format); err != nil {
		return err
	}
	if *format == "text" {
		fmt.Printf("(%.1fs wall)\n", time.Since(start).Seconds()) //marlin:allow wallclock -- wall-time banner; host-side UX
	}
	return nil
}

// cmdAll regenerates every experiment through the fleet pool. Results are
// emitted in registration order regardless of -j; each experiment still
// sees the same ExperimentOptions it would sequentially, so the metrics of
// a parallel run are identical to -j 1 (which is today's sequential loop:
// one worker draining jobs in order).
func cmdAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	scale, seed, format := addExpFlags(fs)
	workers := fs.Int("j", runtime.GOMAXPROCS(0), "parallel experiment jobs (1 = sequential)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := marlin.ExperimentOptions{Scale: *scale, Seed: *seed}
	names := marlin.Experiments()
	jobs := make([]marlin.FleetJob, len(names))
	for i, name := range names {
		name := name
		jobs[i] = marlin.FleetJob{ID: name, Run: func() (*marlin.FleetOutput, error) {
			res, err := marlin.RunExperiment(name, opts)
			if err != nil {
				return nil, err
			}
			return &marlin.FleetOutput{Table: res}, nil
		}}
	}
	var progress io.Writer
	if *workers != 1 {
		progress = os.Stderr
	}
	_, err := marlin.RunFleet(jobs, marlin.FleetOptions{
		Workers:  *workers,
		Progress: progress,
		OnResult: func(_ int, r marlin.FleetJobResult) error {
			if !r.OK() {
				return fmt.Errorf("%s: %s", r.ID, r.Err)
			}
			if err := emit(os.Stdout, r.Output.Table, *format); err != nil {
				return err
			}
			if *format == "text" {
				fmt.Printf("(%.1fs wall)\n\n", r.ElapsedMS/1000)
			}
			return nil
		},
	})
	return err
}

// testArgs is what test takes beyond the configuration keys.
type testArgs struct {
	dur   marlin.Duration
	fanin bool
	pcap  string
}

func parseTest(args []string) (marlin.TestConfig, testArgs, error) {
	cfg := adhocDefaults()
	var a testArgs
	fs := keyFlags("test", &cfg)
	durationVar(fs, &a.dur, 5*marlin.Millisecond, "simulated duration (e.g. 5ms, 2s)")
	fs.BoolVar(&a.fanin, "fanin", false, "route all flows to one destination port")
	fs.StringVar(&a.pcap, "pcap", "", "capture the first forward link to this pcap file")
	if err := fs.Parse(args); err != nil {
		return cfg, a, err
	}
	return cfg, a, nil
}

func cmdTest(args []string) error {
	cfg, a, err := parseTest(args)
	if err != nil {
		return err
	}
	for _, warn := range marlin.Lint(cfg) {
		fmt.Fprintln(os.Stderr, "warning:", warn)
	}
	t, err := marlin.NewTester(cfg)
	if err != nil {
		return err
	}
	var pcapFile *os.File
	if a.pcap != "" {
		pcapFile, err = os.Create(a.pcap)
		if err != nil {
			return err
		}
		defer pcapFile.Close()
		rx := 0
		if a.fanin {
			rx = t.DataPorts() - 1
		}
		if _, err := t.CaptureForward(rx, pcapFile, 0); err != nil {
			return err
		}
	}
	id, err := startFlows(t, cfg.FlowsPerPort, a.fanin)
	if err != nil {
		return err
	}
	t.RunFor(a.dur)

	snap := t.Registers()
	fmt.Println(marlin.FormatSnapshot(snap))
	secs := a.dur.Seconds()
	var rates []float64
	var total float64
	for f := marlin.FlowID(0); f < id; f++ {
		gbps := float64(t.FlowTxBytes(f)) * 8 / secs / 1e9
		rates = append(rates, gbps)
		total += gbps
		fmt.Printf("flow %-4d %8.2f Gbps\n", f, gbps)
	}
	fmt.Printf("aggregate %8.2f Gbps   jain %.4f\n", total, marlin.JainIndex(rates))
	losses := t.Losses()
	fmt.Printf("losses: network=%d false=%d rx=%d\n",
		losses.NetworkDrops, losses.FalseLosses, losses.RXDrops)
	if cfg.Faults != "" {
		fmt.Printf("fault losses: injected=%d carrier=%d\n",
			losses.InjectedDrops, losses.DownDrops)
		fmt.Println("fault recovery:")
		for _, r := range t.FaultRecoveries() {
			fmt.Printf("  %s\n", r)
		}
	}
	if cfg.Pattern != "" {
		if ov := t.Overload(); ov != nil {
			fmt.Printf("overload: absorption=%.4f peak_queue=%dB (%.2fx threshold) time_over=%v windows=%d\n",
				ov.BurstAbsorption, ov.PeakQueueBytes, ov.PeakOvershoot, ov.TimeInOverload, len(ov.Windows))
			base := t.PatternFlowBase()
			var bg []marlin.FCTRecord
			for _, rec := range t.FCTs() {
				if rec.Flow < base {
					bg = append(bg, rec)
				}
			}
			fmt.Printf("background fct inflation: %.3f\n", marlin.FCTInflation(bg, ov.Windows))
		}
	}
	for _, sw := range t.NetworkTelemetry() {
		for pi, ps := range sw.Ports {
			if ps.AQM == nil || ps.AQM.Marks+ps.AQM.Drops == 0 {
				continue // no discipline (step ECN has none), or it never acted
			}
			fmt.Printf("aqm %s p%d %s: marks=%d drops=%d", sw.Name, pi, ps.AQM.Discipline,
				ps.AQM.Marks, ps.AQM.Drops)
			for b, n := range ps.AQM.BandDeqPackets {
				if n > 0 {
					fmt.Printf(" band%d=%dpkts/p99=%.1fus", b, n, ps.AQM.SojournP99Us[b])
				}
			}
			fmt.Println()
		}
	}
	if cfg.Topology != "" {
		fmt.Printf("misroutes: %d\n", losses.Misroutes)
		if paths := t.ECMPPaths(); len(paths) > 0 {
			fmt.Printf("ecmp: %d equal-cost paths, imbalance %.3f\n",
				len(paths), marlin.ECMPImbalance(paths))
			for _, pc := range paths {
				fmt.Printf("  %s p%d -> %-8s %10d pkts\n",
					pc.Switch, pc.Port, pc.Next, pc.TxPackets)
			}
		}
	}
	if samples, count, ewma := t.RTT(); count > 0 {
		cdf := marlin.NewCDF(samples)
		fmt.Printf("rtt: probes=%d ewma=%.1fus p50=%.1fus p99=%.1fus\n",
			count, ewma, cdf.Percentile(0.5), cdf.Percentile(0.99))
		h := marlin.NewHistogram("us")
		h.AddAll(samples)
		fmt.Print("rtt distribution:\n", h.Render(36))
	}
	if pcapFile != nil {
		fmt.Printf("pcap written to %s\n", pcapFile.Name())
	}
	return nil
}

func parseDot(args []string) (marlin.TestConfig, error) {
	cfg := marlin.TestConfig{Algorithm: "dctcp", Ports: 4, Seed: 1}
	err := keyFlags("dot", &cfg).Parse(args)
	return cfg, err
}

func cmdDot(args []string) error {
	cfg, err := parseDot(args)
	if err != nil {
		return err
	}
	t, err := marlin.NewTester(cfg)
	if err != nil {
		return err
	}
	fmt.Print(t.TopologyDOT())
	return nil
}

func cmdScript(args []string) error { return runScripts(os.Stdout, args, runtime.GOMAXPROCS(0)) }

// runScripts runs scenario files in turn, a sweep's points on workers fleet
// workers, and writes each one's report table, if it has one, and checks.
func runScripts(w io.Writer, paths []string, workers int) error {
	if len(paths) == 0 {
		return fmt.Errorf("script: need at least one scenario file")
	}
	failed := 0
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		s, err := scenario.Parse(string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		rep, err := s.RunWith(marlin.FleetOptions{Workers: workers}, 1)
		if rep != nil {
			fmt.Fprintf(w, "== %s ==\n", path)
			if rep.Table != nil {
				rep.Table.Fprint(w)
			}
			fmt.Fprint(w, rep.Summary())
			if !rep.Passed() {
				failed++
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d scenario(s) failed", failed)
	}
	return nil
}
