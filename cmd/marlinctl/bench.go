package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"marlin"
)

// cmdBench runs a fixed tester workload repeatedly and reports wall-clock
// throughput (simulated events and DATA packets per host second). It exists
// to drive the profilers: -cpuprofile/-memprofile/-trace wrap the hot loop
// the way 'go test -bench' would, but against the full assembled tester
// rather than a microbenchmark.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	algo := fs.String("algo", "dctcp", "CC algorithm")
	ports := fs.Int("ports", 4, "data ports")
	flows := fs.Int("flows", 1, "flows per sender port")
	durStr := fs.String("duration", "5ms", "simulated duration per repetition")
	reps := fs.Int("reps", 3, "repetitions (a fresh tester each)")
	ecn := fs.Int("ecn", 65, "ECN step-marking threshold in packets (0 = off)")
	fanin := fs.Bool("fanin", false, "route all flows to one destination port")
	fpgaRecv := fs.Bool("fpgarecv", false, "run receiver logic on the FPGA")
	topology := fs.String("topology", "", "tested-network fabric (empty = single switch)")
	shards := fs.Int("shards", 0, "conservative parallel build on up to N worker cores (needs -topology; 0 = one island on one engine)")
	seed := fs.Uint64("seed", 1, "random seed")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file")
	tracePath := fs.String("trace", "", "write a runtime execution trace to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dur, err := time.ParseDuration(*durStr)
	if err != nil {
		return fmt.Errorf("bench: bad -duration: %w", err)
	}
	if *reps < 1 {
		return fmt.Errorf("bench: -reps must be >= 1")
	}

	cfg := marlin.TestConfig{
		Algorithm:        *algo,
		Ports:            *ports,
		ECNThresholdPkts: *ecn,
		ReceiverOnFPGA:   *fpgaRecv,
		Topology:         *topology,
		Shards:           *shards,
		DCQCNTimeScale:   30,
		Seed:             *seed,
	}

	// Warm-up repetition outside the profiled window: JIT-free Go still
	// benefits from warming the page cache, the packet pool, and the
	// branch predictors before measuring.
	if _, _, err := benchRep(cfg, *flows, *fanin, dur); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
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
	for r := 0; r < *reps; r++ {
		events, pkts, err := benchRep(cfg, *flows, *fanin, dur)
		if err != nil {
			return err
		}
		totalEvents += events
		totalPkts += pkts
	}
	elapsed := time.Since(start) //marlin:allow wallclock -- bench measures host throughput

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
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
		*algo, *ports, *flows, *durStr, *reps)
	fmt.Printf("wall %.3fs  sim %.1fms  sim/wall %.3fx\n",
		secs, float64(*reps)*dur.Seconds()*1e3,
		float64(*reps)*dur.Seconds()/secs)
	fmt.Printf("events %d  (%.2fM events/s)\n",
		totalEvents, float64(totalEvents)/secs/1e6)
	fmt.Printf("data packets %d  (%.2fM pkts/s)\n",
		totalPkts, float64(totalPkts)/secs/1e6)
	if *cpuprofile != "" {
		fmt.Printf("cpu profile written to %s (inspect with 'go tool pprof')\n", *cpuprofile)
	}
	if *memprofile != "" {
		fmt.Printf("mem profile written to %s (inspect with 'go tool pprof')\n", *memprofile)
	}
	if *tracePath != "" {
		fmt.Printf("trace written to %s (inspect with 'go tool trace')\n", *tracePath)
	}
	return nil
}

// benchRep assembles one tester, runs the workload for dur of simulated
// time, and reports events fired and DATA packets emitted.
func benchRep(cfg marlin.TestConfig, flows int, fanin bool, dur time.Duration) (events, pkts uint64, err error) {
	t, err := marlin.NewTester(cfg)
	if err != nil {
		return 0, 0, err
	}
	senders := t.DataPorts()
	dst := -1
	if fanin {
		senders = t.DataPorts() - 1
		dst = senders
	}
	var id marlin.FlowID
	for p := 0; p < senders; p++ {
		rx := p
		if dst >= 0 {
			rx = dst
		}
		for k := 0; k < flows; k++ {
			if err := t.StartFlow(id, p, rx, 0); err != nil {
				return 0, 0, err
			}
			id++
		}
	}
	t.RunFor(marlin.Duration(dur.Nanoseconds()) * marlin.Nanosecond)
	return t.EventsExecuted(), t.Registers().Switch.DataTx, nil
}
