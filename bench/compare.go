package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRecords loads the result records of one file, grouped by workload.
func readRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}

// compareMain applies the end-to-end bounds to two result files, A the
// baseline and B the candidate, each holding one or more runs per workload
// (bench -out appends). It prints one row per (workload, metric) with both
// medians and quartiles, and returns non-zero when any row is worse or B
// fails a larger share of its checks than A.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare A.jsonl B.jsonl")
		return 2
	}
	a, err := readRecords(args[0])
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s: no result records", args[0])
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	b, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	names := make([]string, 0, len(a))
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)

	worse := false
	fmt.Fprintf(stdout, "%-16s %-22s %12s %24s %12s %24s %8s  %s\n",
		"workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "change", "verdict")
	for _, name := range names {
		if len(b[name]) == 0 {
			fmt.Fprintf(stdout, "%-16s missing from %s: worse\n", name, args[1])
			worse = true
			continue
		}
		for _, d := range endToEnd {
			av, bv := values(a[name], d.name), values(b[name], d.name)
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(stdout, "%-16s %-22s not in both files: worse\n", name, d.name)
				worse = true
				continue
			}
			aq1, amed, aq3 := quartiles(av)
			bq1, bmed, bq3 := quartiles(bv)
			allowed := amed * d.bound
			// A spread wider than the bound cannot tell "unchanged" from
			// noise, unless the two sides do not overlap at all.
			over := bmed > amed+allowed
			noisy := max(aq3-aq1, bq3-bq1) > allowed
			verdict := "ok"
			switch {
			case over && (!noisy || allAbove(av, bv)):
				verdict = "worse"
				worse = true
			case noisy && !allAbove(bv, av):
				verdict = "unresolved"
			}
			fmt.Fprintf(stdout, "%-16s %-22s %12.6g %24s %12.6g %24s %+7.2f%%  %s\n", name, d.name,
				amed, fmt.Sprintf("%.6g..%.6g", aq1, aq3), bmed, fmt.Sprintf("%.6g..%.6g", bq1, bq3),
				100*ratio(bmed-amed, amed), verdict)
		}
		af, bf := failShare(a[name]), failShare(b[name])
		verdict := "ok"
		if bf > af {
			verdict = "worse"
			worse = true
		}
		fmt.Fprintf(stdout, "%-16s %-22s %12.6g %24s %12.6g %24s %8s  %s\n", name, "check_fail_share", af, "", bf, "", "", verdict)
	}
	if worse {
		return 1
	}
	return 0
}

func values(rs []result, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// failShare is failed / attempted operations over all runs of a workload.
func failShare(rs []result) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

// allAbove reports whether every run in hi reads higher than every run in
// lo: then the spread does not hide which side is worse.
func allAbove(lo, hi []float64) bool {
	top := lo[0]
	for _, v := range lo {
		top = max(top, v)
	}
	for _, v := range hi {
		if v <= top {
			return false
		}
	}
	return len(hi) > 0
}
