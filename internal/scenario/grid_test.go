package scenario

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"marlin/internal/fleet"
)

// A sweep runs one point per combination, first axis slowest; the table and
// the checks come back in point order, the same at any worker count, and a
// failed check names its point.
func TestSweepRowsInPointOrder(t *testing.T) {
	s := mustParse(t, `
set algo dctcp
set ports 3
sweep ecn 8,200
sweep seed 1,2
at 0ms fanin size 20..60 loop
run 1ms
expect completions >= 10
expect total_gbps < 0
report completions total_gbps
`)
	var reports []*Report
	for _, workers := range []int{1, 3} {
		rep, err := s.RunWith(fleet.Options{Workers: workers}, 1)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatalf("reports differ across worker counts:\n%s\n%s", reports[0].Summary(), reports[1].Summary())
	}
	rep := reports[0]
	if got, want := rep.Table.Headers, []string{"ecn", "seed", "completions", "total_gbps"}; !reflect.DeepEqual(got, want) {
		t.Errorf("headers %v, want %v", got, want)
	}
	var axes []string
	for _, row := range rep.Table.Rows {
		axes = append(axes, row[0]+"/"+row[1])
	}
	if want := []string{"8/1", "8/2", "200/1", "200/2"}; !reflect.DeepEqual(axes, want) {
		t.Errorf("point order %v, want %v", axes, want)
	}
	if len(rep.Checks) != 8 || rep.Passed() {
		t.Fatalf("checks:\n%s", rep.Summary())
	}
	if c := rep.Checks[7]; c.Text != "ecn=200,seed=2: total_gbps < 0" || c.Pass || !strings.Contains(rep.Summary(), "ecn=200,seed=2: total_gbps < 0") {
		t.Errorf("last check %+v does not name its point:\n%s", c, rep.Summary())
	}
	// Each point runs at its own seed: the seed axis moves the numbers.
	if rep.Table.Rows[0][3] == rep.Table.Rows[1][3] {
		t.Errorf("seeds 1 and 2 gave the same goodput %s", rep.Table.Rows[0][3])
	}
}

// An aqm axis replaces a step ECN set before it, point by point: each
// point runs its discipline (sojourn_p99_us reads only a discipline's
// queues). A set ecn once stayed beside every point's AQM, and no point
// validated.
func TestSweepAQMReplacesStepECN(t *testing.T) {
	s := mustParse(t, "set algo dctcp\nset ports 3\nset ecn 65\nsweep aqm pi2,red\nat 0ms fanin\nrun 200us\nreport sojourn_p99_us")
	rep, err := s.RunWith(fleet.Options{Workers: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 2 || rep.Table.Rows[0][0] != "pi2" || rep.Table.Rows[1][0] != "red" {
		t.Errorf("rows %v, want one per discipline", rep.Table.Rows)
	}
}

// A point that cannot run reads "error" in every metric column, a note
// says why, and RunWith returns the report with the count.
func TestSweepFailedPointIsReported(t *testing.T) {
	s := mustParse(t, "set algo dctcp\nsweep ports 1,2\nat 0ms fanin\nrun 100us\nreport total_gbps")
	rep, err := s.RunWith(fleet.Options{Workers: 1}, 1)
	if err == nil || !strings.Contains(err.Error(), "1 of 2 sweep run(s) failed") || rep == nil {
		t.Fatalf("err = %v, report %v", err, rep)
	}
	if row := rep.Table.Rows[0]; row[1] != "error" || !strings.Contains(rep.Table.Notes[0], "fanin needs at least 2 data ports") {
		t.Errorf("failed point: row %v, notes %v", row, rep.Table.Notes)
	}
	if row := rep.Table.Rows[1]; row[1] == "error" {
		t.Errorf("ports=2 failed too: %v", rep.Table.Notes)
	}
}

// Replicates: rep 0 is the point itself, the others derive their seeds, and
// each metric gets its mean, min and max.
func TestSweepReplicates(t *testing.T) {
	const src = "set algo dctcp\nset ports 3\nsweep ecn 65\nat 0ms fanin size 20..60 loop\nrun 500us\nreport total_gbps fct_p50_us"
	one, err := mustParse(t, src).RunWith(fleet.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	three, err := mustParse(t, src).RunWith(fleet.Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := three.Table.Headers, []string{"ecn", "total_gbps", "total_gbps_min", "total_gbps_max", "fct_p50_us"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("headers %v, want %v", got, want)
	}
	row := three.Table.Rows[0]
	if row[2] == row[3] {
		t.Errorf("three replicates gave one goodput: %v", row)
	}
	v, lo, hi := num(t, one.Table.Rows[0][1]), num(t, row[2]), num(t, row[3])
	if v < lo || v > hi {
		t.Errorf("rep 0 goodput %v outside the replicates' range %v", v, row)
	}
}

func num(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// fanin starts the flows setting's count on every port but the last, IDs
// port-major from 0, and jain counts them; looping flows restart with a
// fresh drawn size, so completions outnumber the flows.
func TestFaninLoopsAndCountsInJain(t *testing.T) {
	s := mustParse(t, `
set algo dctcp
set ports 4
set flows 2
at 0ms fanin size 10..30 loop
run 2ms
expect completions > 6
expect flow_gbps 5 > 0
expect jain > 0.5
report completions jain
`)
	if got := s.startedFlows(4); len(got) != 6 || got[5] != 5 {
		t.Fatalf("fanin flows %v, want 0..5", got)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() || len(rep.Table.Rows) != 1 || rep.Table.Title != "single run" {
		t.Fatalf("fanin scenario:\n%s%+v", rep.Summary(), rep.Table)
	}
	// The draws are a pure function of the seed.
	again, _ := mustParse(t, s.String()).Run()
	if !reflect.DeepEqual(rep.Table.Rows, again.Table.Rows) {
		t.Errorf("rerun differs: %v vs %v", rep.Table.Rows, again.Table.Rows)
	}
}

// Every registry name is one measure knows, so report never accepts a
// metric it cannot print; the per-fault metrics read the plan by index,
// the per-band ones a queue's bands. The test runs on a leaf-spine, so
// ecmp_imbalance has paths to read.
func TestMetricRegistryMatchesMeasure(t *testing.T) {
	s := mustParse(t, `
set algo dctcp
set ports 4
set topology leafspine:2x2
set aqm pi2
set fault linkdown fwd1 at 200us for 100us
set fault nicstall at 600us for 50us
set pattern incast:period=500us,fanin=2,victim=1,size=20
at 0ms start 0 tx 0 rx 1 size 50 loop
run 1500us
`)
	var refused error
	tr, err := s.Start(&refused)
	if err != nil {
		t.Fatal(err)
	}
	tr.Run(1500e6)
	for name, op := range metrics {
		m := name
		if op == needsOperand {
			m += " 1"
		}
		if _, err := s.measure(tr, m, 1500e6); err != nil {
			t.Errorf("%s: %v", m, err)
		}
	}
	if _, err := s.measure(tr, "fault_rtx 2", 1500e6); err == nil || !strings.Contains(err.Error(), "has 2 faults") {
		t.Errorf("fault_rtx 2 of a two-fault plan: %v", err)
	}
	if _, err := s.measure(tr, "band_share 2", 1500e6); err == nil || !strings.Contains(err.Error(), "has 2 bands") {
		t.Errorf("band_share 2 of a two-band queue: %v", err)
	}
	worst, _ := s.measure(tr, "fault_ttr_us", 1500e6)
	first, _ := s.measure(tr, "fault_ttr_us 0", 1500e6)
	second, _ := s.measure(tr, "fault_ttr_us 1", 1500e6)
	if worst != math.Max(first, second) {
		t.Errorf("fault_ttr_us %v, want the worse of %v and %v", worst, first, second)
	}
}
