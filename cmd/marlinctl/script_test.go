package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"marlin"
)

// TestExampleScenarioGoldens runs every example script the way "marlinctl
// script" does, from the repository root, and byte-compares its output with
// examples/scenarios/testdata/<name>.golden at one and at four fleet
// workers: a sweep's rows come back in point order whatever the pool size.
// Regenerate a golden after an intentional change with
//
//	go run ./cmd/marlinctl script examples/scenarios/NAME.scn > examples/scenarios/testdata/NAME.golden
func TestExampleScenarioGoldens(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("..", "..")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	scripts, err := filepath.Glob(filepath.Join("examples", "scenarios", "*.scn"))
	if err != nil || len(scripts) == 0 {
		t.Fatalf("no example scripts: %v", err)
	}
	for _, path := range scripts {
		name := strings.TrimSuffix(filepath.Base(path), ".scn")
		want, err := os.ReadFile(filepath.Join("examples", "scenarios", "testdata", name+".golden"))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		for _, workers := range []int{1, 4} {
			var out bytes.Buffer
			if err := runScripts(&out, []string{path}, workers); err != nil {
				t.Errorf("%s at %d workers: %v\n%s", name, workers, err, out.String())
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("%s at %d workers differs from its golden:\n%s", name, workers, out.String())
			}
		}
	}
}

// A zero-length sweep has no completions to take FCT percentiles of: the
// table says so with "-" rather than NaN, and goodput over no time is 0.
func TestZeroLengthSweepPrintsNoNaN(t *testing.T) {
	var out bytes.Buffer
	if err := cmdSweep(&out, splitArgs("-axis ecn=8,65 -duration 0 -reps 2 -j 1")); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "NaN") || !strings.Contains(out.String(), "8    0 ") {
		t.Errorf("zero-length sweep:\n%s", out.String())
	}
}

// The journal resumes a sweep, and a resumed run, a fresh run and runs at
// other worker counts print the same table.
func TestSweepJournalResumesByteIdentical(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	args := "-axis ecn=8,65 -axis algo=dctcp,reno -reps 2 -duration 1ms"
	run := func(extra string) string {
		t.Helper()
		var out bytes.Buffer
		if err := cmdSweep(&out, splitArgs(args+" "+extra)); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	first := run("-j 1 -journal " + journal)
	logged, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(logged, []byte("\n")); n != 8 {
		t.Fatalf("journal holds %d runs, want 8", n)
	}
	for _, extra := range []string{"-j 4 -journal " + journal, "-j 4", "-j 1"} {
		if got := run(extra); got != first {
			t.Errorf("sweep %s:\n%s\nwant\n%s", extra, got, first)
		}
	}
	if after, _ := os.ReadFile(journal); !bytes.Equal(after, logged) {
		t.Error("resuming reran runs the journal already held")
	}
}

// The Markdown renderer that -format md selects: a section per result,
// with its table, metrics and notes.
func TestEmitMarkdown(t *testing.T) {
	res := &marlin.ExperimentResult{
		Name: "fig7", Title: "per-flow throughput",
		Headers: []string{"time_ms", "flow0_gbps"},
		Rows:    [][]string{{"0.5", "98.1"}, {"1.0", "98.1"}},
		Notes:   []string{"scaled run"},
		Metrics: map[string]float64{"mean_total_tbps": 1.177},
	}
	var out bytes.Buffer
	if err := emit(&out, res, "md"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"## fig7 — per-flow throughput",
		"| time_ms | flow0_gbps |",
		"| --- | --- |",
		"| 0.5 | 98.1 |",
		"| mean_total_tbps | 1.177 |",
		"> scaled run",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("markdown missing %q:\n%s", want, out.String())
		}
	}
	if _, sa, err := parseSweep(splitArgs("-axis ecn=8 -format md")); err != nil || sa.format != "md" {
		t.Errorf("-format md: %q, %v", sa.format, err)
	}
}

func TestEmitMarkdownPadsRaggedRows(t *testing.T) {
	res := &marlin.ExperimentResult{
		Name: "x", Title: "t",
		Headers: []string{"a", "b", "c"},
		Rows:    [][]string{{"1"}}, // a short row pads, and does not panic
	}
	var out bytes.Buffer
	if err := emit(&out, res, "md"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "| 1 |  |  |") {
		t.Errorf("ragged row not padded:\n%s", out.String())
	}
}
