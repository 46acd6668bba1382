package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// contract is the shape of ../BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractMatchesTables pins BENCHMARK.json to the metric and workload
// tables the program prints from, so neither can drift alone.
func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	ws := workloads(false)
	if len(c.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(ws))
	}
	for i, w := range ws {
		name(w.name)
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program {%s %s}", i, c.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		name(d.name)
		m := c.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Bound != d.bound || m.Better != "lower" {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		if !unitRE.MatchString(d.unit) || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %s: bad unit or bound", d.name)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(c.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		name(d.name)
		m := c.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("per-layer metric %s: bad unit %q", d.name, d.unit)
		}
	}
}

// quickRun runs every workload under -quick and returns the per-workload
// records it appended plus everything it printed.
func quickRun(t *testing.T, seed string, trace string) (map[string]result, string) {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	var stdout, stderr bytes.Buffer
	code := runMain([]string{"-quick", "-seed", seed, "-trace", trace, "-out", out, "-tracedir", dir}, &stdout, &stderr)
	if code != 0 {
		var failed []string
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.Contains(line, "FAILED") {
				failed = append(failed, line)
			}
		}
		t.Fatalf("bench -quick -seed %s -trace %s exited %d\n%s\n%s", seed, trace, code, strings.Join(failed, "\n"), stderr.String())
	}
	recs, err := readRecords(out)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]result{}
	for name, rs := range recs {
		if len(rs) != 1 {
			t.Fatalf("workload %s: %d records, want 1", name, len(rs))
		}
		byName[name] = rs[0]
	}
	if trace == "1" {
		for name := range byName {
			data, err := os.ReadFile(filepath.Join(dir, "trace-"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string
					Dur  float64
				}
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("trace file of %s: %v", name, err)
			}
			spans := map[string]int{}
			for _, e := range doc.TraceEvents {
				spans[strings.SplitN(e.Name, "[", 2)[0]]++
			}
			for _, want := range []string{"controlplane.validate", "controlplane.deploy", "core.start_flows",
				"run.slice", "controlplane.read_registers", "measure.fct_readout", "kernel sim.kernel_ns_per_event"} {
				if spans[want] == 0 {
					t.Errorf("trace file of %s has no %q span", name, want)
				}
			}
		}
	}
	return byName, stdout.String()
}

// TestQuickSmoke is the tier-1 smoke: every workload and metric named in
// BENCHMARK.json is printed exactly once per workload with a finite value,
// all output checks pass, two runs on one seed simulate the same thing, and
// another seed simulates something else without failing a check.
func TestQuickSmoke(t *testing.T) {
	c := readContract(t)
	traced, printed := quickRun(t, "1", "1")
	again, _ := quickRun(t, "1", "0")
	other, _ := quickRun(t, "2", "0")

	seeded := map[string]bool{}
	for _, w := range workloads(true) {
		seeded[w.name] = w.seeded
	}
	lines := strings.Split(printed, "\n")
	var final finalLine
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &final); err != nil {
		t.Fatalf("last line of stdout is not the result object: %v", err)
	}
	if !final.Correct || final.Failed != 0 || final.Attempted < 1 {
		t.Errorf("result line: correct=%v attempted=%d failed=%d", final.Correct, final.Attempted, final.Failed)
	}
	for _, w := range c.Workloads {
		r, ok := traced[w.Name]
		if !ok {
			t.Errorf("workload %s did not run", w.Name)
			continue
		}
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s: %d of %d checks failed: %v", w.Name, r.Failed, r.Attempted, r.FailedChecks)
		}
		// The printed section of this workload.
		start := strings.Index(printed, "== "+w.Name+" ")
		if start < 0 || strings.Count(printed, "== "+w.Name+" ") != 1 {
			t.Fatalf("workload %s is not printed exactly once", w.Name)
		}
		section := printed[start:]
		section = section[:strings.Index(section, "\n---")]
		check := func(name, unit string) {
			v, ok := r.Metrics[name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != unit {
				t.Errorf("%s: metric %s = %+v (present %v), want a finite value in %s", w.Name, name, v, ok, unit)
			}
			if n := len(regexp.MustCompile(`(?m)^  `+regexp.QuoteMeta(name)+` `).FindAllString(section, -1)); n != 1 {
				t.Errorf("%s: metric %s printed %d times, want once", w.Name, name, n)
			}
		}
		var shares float64
		for _, m := range c.EndToEnd {
			check(m.Name, m.Unit)
			if r.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.Name, m.Name, r.Metrics[m.Name].Value)
			}
		}
		for _, m := range c.PerLayer {
			check(m.Name, m.Unit)
			if strings.HasSuffix(m.Name, "cpu_share") {
				shares += r.Metrics[m.Name].Value
			}
			if _, ok := final.Metrics[w.Name+"/"+m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing from the -trace 1 result line", w.Name, m.Name)
			}
		}
		if math.Abs(shares-1) > 0.01 {
			t.Errorf("%s: cpu_share rows sum to %v, want 1", w.Name, shares)
		}

		// Same seed: same simulation, so the same digest and the same
		// count-kind metrics, traced or not.
		a := again[w.Name]
		if a.SimDigest != r.SimDigest {
			t.Errorf("%s: two seed-1 runs digest %s and %s", w.Name, r.SimDigest, a.SimDigest)
		}
		for _, d := range perLayer {
			if d.kind != count {
				continue
			}
			if got, ok := a.Metrics[d.name]; !ok || got != r.Metrics[d.name] {
				t.Errorf("%s: count metric %s is %v traced and %v untraced", w.Name, d.name, r.Metrics[d.name], got)
			}
		}
		// Another seed: no failed check either (quickRun insisted on exit
		// code 0), and another simulation wherever the model is seeded.
		if o := other[w.Name]; (o.SimDigest != r.SimDigest) != seeded[w.Name] || !o.Correct {
			t.Errorf("%s: seed 2 digest %s, seed 1 %s, seeded=%v, correct=%v", w.Name, o.SimDigest, r.SimDigest, seeded[w.Name], o.Correct)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestShareRow(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"marlin/internal/sim.(*Engine).Run", "main.main"}, "sim.cpu_share"},
		{[]string{"marlin/internal/netem.(*Link).Send", "marlin/internal/sim.(*Engine).fire"}, "netem.cpu_share"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc_cpu_share"},
		{[]string{"runtime.memmove", "marlin/internal/sim.(*Engine).Run"}, "runtime.other_cpu_share"},
		{[]string{"runtime.mallocgc", "marlin/internal/fpga.(*NIC).emitSche"}, "runtime.other_cpu_share"},
		{[]string{"marlin/internal/spec.Parse"}, "runtime.other_cpu_share"},
		{nil, "runtime.other_cpu_share"},
	} {
		if got := shareRow(c.stack); got != c.want {
			t.Errorf("shareRow(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestCompare drives the compare subcommand over synthetic result files.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, nsPkt []float64, failed int) string {
		path := filepath.Join(dir, name)
		for _, v := range nsPkt {
			r := &result{Workload: "w", Attempted: 10, Failed: failed, Metrics: map[string]metricValue{
				"setup_s": {1, "s"}, "host_ns_per_data_pkt": {v, "ns"},
				"allocs_per_data_pkt": {3, "1"}, "heap_live_mib": {70, "MiB"},
			}}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base", []float64{1000, 1010, 990, 1005, 995}, 0)
	for _, c := range []struct {
		name    string
		cand    string
		code    int
		verdict string
	}{
		{"same", write("same", []float64{1002, 1008, 992, 1003, 997}, 0), 0, "ok"},
		{"slower", write("slower", []float64{1400, 1410, 1390, 1405, 1395}, 0), 1, "worse"},
		{"noisy", write("noisy", []float64{600, 1800, 800, 1700, 1000}, 0), 0, "unresolved"},
		{"failing", write("failing", []float64{1000, 1010, 990, 1005, 995}, 1), 1, "worse"},
	} {
		var stdout, stderr bytes.Buffer
		code := compareMain([]string{base, c.cand}, &stdout, &stderr)
		if code != c.code || !strings.Contains(stdout.String(), c.verdict) {
			t.Errorf("%s: exit %d, want %d with a %q row\n%s%s", c.name, code, c.code, c.verdict, stdout.String(), stderr.String())
		}
	}
}
