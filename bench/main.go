// Command bench is Marlin's end-to-end benchmark: host cost per simulated
// DATA packet on four workloads, with a per-layer ledger. See README.md.
//
//	go run ./bench                                  # every workload
//	go run ./bench -workload fanin_dcqcn -trace 1   # one workload, with the per-layer ledger
//	go run ./bench -out a.jsonl                     # append result records for compare
//	go run ./bench compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runMain runs the selected workloads and prints, as the last line of
// stdout, one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with -trace 0, the per-layer metrics with -trace 1.
// With several workloads the metric names carry a "<workload>/" prefix.
func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Uint64("seed", 1, "workload seed; the only workload input")
	seconds := fs.Float64("seconds", 10, "host seconds of measured windows per workload")
	trace := fs.Int("trace", 0, "1 adds the traced pass: spans, CPU profile, layer kernels, per-layer metrics")
	quick := fs.Bool("quick", false, "smoke run: one rep per workload on shrunken horizons")
	out := fs.String("out", "", "append one JSON result record per workload to this file")
	traceDir := fs.String("tracedir", ".bench_build", "directory for the traced pass's Chrome trace-event files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-quick] [-out file] | bench compare A B")
		return 2
	}
	var selected []workload
	for _, w := range workloads(*quick) {
		if *name == "" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	final := finalLine{Correct: true, Metrics: map[string]metricValue{}}
	for i := range selected {
		w := &selected[i]
		o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick,
			traceFile: filepath.Join(*traceDir, "trace-"+w.name+".json")}
		res, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		printResult(stdout, res, o)
		if *out != "" {
			if err := appendRecord(*out, res); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 2
			}
		}
		final.add(res, len(selected) > 1)
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct {
		return 1
	}
	return 0
}

// finalLine is the machine-readable last line of a run.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (f *finalLine) add(res *result, prefix bool) {
	f.Correct = f.Correct && res.Correct
	f.Attempted += res.Attempted
	f.Failed += res.Failed
	put := func(name string) {
		key := name
		if prefix {
			key = res.Workload + "/" + name
		}
		f.Metrics[key] = res.Metrics[name]
	}
	if res.Trace {
		for _, d := range perLayer {
			put(d.name)
		}
		return
	}
	for _, d := range endToEnd {
		put(d.name)
	}
}

// printResult prints every metric of one workload by name, with its unit.
func printResult(w io.Writer, res *result, o options) {
	fmt.Fprintf(w, "== %s  seed %d  reps %d  sim_digest %s\n", res.Workload, res.Seed, res.Reps, res.SimDigest)
	row := func(name string) {
		v := res.Metrics[name]
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", name, v.Value, v.Unit)
	}
	for _, d := range endToEnd {
		row(d.name)
	}
	fmt.Fprintf(w, "  %-36s %16.6g %s   (%d of %d checks failed)\n", "check_fail_share",
		ratio(float64(res.Failed), float64(res.Attempted)), "1", res.Failed, res.Attempted)
	for _, c := range res.FailedChecks {
		fmt.Fprintf(w, "  FAILED %s\n", c)
	}
	if res.Trace {
		for _, d := range perLayer {
			row(d.name)
		}
		fmt.Fprintf(w, "  spans: %s\n", o.traceFile)
	}
	fmt.Fprintln(w, strings.Repeat("-", 60))
}

func appendRecord(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
