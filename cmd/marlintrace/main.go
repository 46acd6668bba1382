// Command marlintrace exercises Marlin's fine-grained tracing (§5.1): it
// runs a single traced flow, optionally injecting scripted loss and ECN
// events (§7.1), and emits the flow's per-event parameter trace as CSV —
// time in microseconds, the module's primary value (window in packets, or
// rate in Mbps for rate-based algorithms), and its alpha word.
//
// Usage:
//
//	marlintrace [-algo dctcp] [-duration 1500us] [-loss PSN]... [-ecn FROM:TO]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"marlin"
)

type psnList []uint32

func (l *psnList) String() string { return fmt.Sprint(*l) }

func (l *psnList) Set(v string) error {
	n, err := strconv.ParseUint(v, 10, 32)
	if err != nil {
		return err
	}
	*l = append(*l, uint32(n))
	return nil
}

func main() {
	algo := flag.String("algo", "dctcp", "CC algorithm to trace")
	durStr := flag.String("duration", "1500us", "simulated duration")
	ecnRange := flag.String("ecn", "", "CE-mark PSN range, FROM:TO")
	var losses psnList
	flag.Var(&losses, "loss", "drop this PSN once (repeatable)")
	flag.Parse()

	if err := run(*algo, *durStr, *ecnRange, losses); err != nil {
		fmt.Fprintln(os.Stderr, "marlintrace:", err)
		os.Exit(1)
	}
}

func run(algo, durStr, ecnRange string, losses psnList) error {
	dur, err := time.ParseDuration(durStr)
	if err != nil {
		return fmt.Errorf("bad -duration: %w", err)
	}
	t, err := marlin.NewTester(marlin.TestConfig{
		Algorithm: algo,
		Ports:     2,
		Seed:      1,
	})
	if err != nil {
		return err
	}
	for _, psn := range losses {
		t.InjectLoss(1, 0, psn)
	}
	if ecnRange != "" {
		parts := strings.SplitN(ecnRange, ":", 2)
		if len(parts) != 2 {
			return fmt.Errorf("bad -ecn %q, want FROM:TO", ecnRange)
		}
		from, err1 := strconv.ParseUint(parts[0], 10, 32)
		to, err2 := strconv.ParseUint(parts[1], 10, 32)
		if err1 != nil || err2 != nil || to < from {
			return fmt.Errorf("bad -ecn %q", ecnRange)
		}
		t.InjectECN(1, 0, uint32(from), uint32(to))
	}
	if err := t.TraceFlow(0); err != nil {
		return err
	}
	if err := t.StartFlow(0, 0, 1, 0); err != nil {
		return err
	}
	t.RunFor(marlin.Duration(dur.Nanoseconds()) * marlin.Nanosecond)

	trace := t.FlowTrace(0)
	if len(trace) == 0 {
		return fmt.Errorf("no trace recorded (is logging enabled?)")
	}
	fmt.Println("time_us,value,alpha_raw")
	for _, p := range trace {
		fmt.Printf("%.3f,%d,%d\n", p.At.Microseconds(), p.A, p.B)
	}
	fmt.Fprintf(os.Stderr, "marlintrace: %d events over %v (algorithm %s)\n",
		len(trace), dur, algo)
	return nil
}
