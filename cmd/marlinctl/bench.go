package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"marlin"
)

// benchArgs is what bench takes beyond the configuration keys.
type benchArgs struct {
	dur                           marlin.Duration
	reps                          int
	fanin                         bool
	cpuprofile, memprofile, trace string
}

func parseBench(args []string) (marlin.TestConfig, benchArgs, error) {
	cfg := adhocDefaults()
	var a benchArgs
	fs := keyFlags("bench", &cfg)
	durationVar(fs, &a.dur, 5*marlin.Millisecond, "simulated duration per repetition")
	fs.IntVar(&a.reps, "reps", 3, "repetitions (a fresh tester each)")
	fs.BoolVar(&a.fanin, "fanin", false, "route all flows to one destination port")
	fs.StringVar(&a.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&a.memprofile, "memprofile", "", "write an allocation profile to this file")
	fs.StringVar(&a.trace, "trace", "", "write a runtime execution trace to this file")
	if err := fs.Parse(args); err != nil {
		return cfg, a, err
	}
	if a.reps < 1 {
		return cfg, a, fmt.Errorf("bench: -reps must be >= 1")
	}
	clearPresetECN(fs, &cfg)
	return cfg, a, nil
}

// cmdBench runs a fixed tester workload repeatedly and reports wall-clock
// throughput (simulated events and DATA packets per host second). It exists
// to drive the profilers: -cpuprofile/-memprofile/-trace wrap the hot loop
// the way 'go test -bench' would, but against the full assembled tester
// rather than a microbenchmark.
func cmdBench(args []string) error {
	cfg, a, err := parseBench(args)
	if err != nil {
		return err
	}

	// Warm-up repetition outside the profiled window: JIT-free Go still
	// benefits from warming the page cache, the packet pool, and the
	// branch predictors before measuring.
	if _, _, err := benchRep(cfg, a.fanin, a.dur); err != nil {
		return err
	}

	if a.cpuprofile != "" {
		f, err := os.Create(a.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if a.trace != "" {
		f, err := os.Create(a.trace)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return err
		}
		defer trace.Stop()
	}

	var totalEvents, totalPkts uint64
	start := time.Now() //marlin:allow wallclock -- bench measures host throughput
	for r := 0; r < a.reps; r++ {
		events, pkts, err := benchRep(cfg, a.fanin, a.dur)
		if err != nil {
			return err
		}
		totalEvents += events
		totalPkts += pkts
	}
	elapsed := time.Since(start) //marlin:allow wallclock -- bench measures host throughput

	if a.memprofile != "" {
		f, err := os.Create(a.memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}

	secs := elapsed.Seconds()
	fmt.Printf("bench: algo=%s ports=%d flows=%d duration=%s reps=%d\n",
		cfg.Algorithm, cfg.Ports, cfg.FlowsPerPort, a.dur, a.reps)
	fmt.Printf("wall %.3fs  sim %.1fms  sim/wall %.3fx\n",
		secs, float64(a.reps)*a.dur.Seconds()*1e3,
		float64(a.reps)*a.dur.Seconds()/secs)
	fmt.Printf("events %d  (%.2fM events/s)\n",
		totalEvents, float64(totalEvents)/secs/1e6)
	fmt.Printf("data packets %d  (%.2fM pkts/s)\n",
		totalPkts, float64(totalPkts)/secs/1e6)
	if a.cpuprofile != "" {
		fmt.Printf("cpu profile written to %s (inspect with 'go tool pprof')\n", a.cpuprofile)
	}
	if a.memprofile != "" {
		fmt.Printf("mem profile written to %s (inspect with 'go tool pprof')\n", a.memprofile)
	}
	if a.trace != "" {
		fmt.Printf("trace written to %s (inspect with 'go tool trace')\n", a.trace)
	}
	return nil
}

// benchRep assembles one tester, runs the workload for dur of simulated
// time, and reports events fired and DATA packets emitted.
func benchRep(cfg marlin.TestConfig, fanin bool, dur marlin.Duration) (events, pkts uint64, err error) {
	t, err := marlin.NewTester(cfg)
	if err != nil {
		return 0, 0, err
	}
	if _, err := startFlows(t, cfg.FlowsPerPort, fanin); err != nil {
		return 0, 0, err
	}
	t.RunFor(dur)
	return t.EventsExecuted(), t.Registers().Switch.DataTx, nil
}
