package scenario

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParse checks the scenario parser never panics, that every accepted
// script re-parses identically (parse determinism), and that the printer
// is Parse's inverse: Parse(s.String()) equals s but for line numbers.
//
// Both oracles compare the full parsed structure with reflect.DeepEqual —
// spec, every timeline action field, every step, every expectation. A
// length-only comparison would pass a parser or printer that swapped a
// range's endpoints, dropped a fault clause's tail while accumulating
// "set fault" lines, or lost a seed of 0 to Parse's default; the
// drop-range, double-fault and seed-0 seeds below pin those shapes.
func FuzzParse(f *testing.F) {
	f.Add("set algo dctcp\nat 0ms start 0 tx 0 rx 1\nrun 1ms\nexpect jain >= 0.9")
	f.Add("run 1ms")
	f.Add("# comment only\nrun 5us")
	f.Add("at 0ms flap rx 1 for 10us\nrun 1ms")
	f.Add("at 1ms mark flow 2 rx 0 psn 1..9\nrun 1ms")
	f.Add("set topology leafspine:2x2\nset ports 4\nat 0ms start 0 tx 0 rx 1\nrun 1ms\nexpect misroutes == 0")
	f.Add("set topology fattree:4\nrun 1ms")
	f.Add("set topology parkinglot:3\nset pfc on\nrun 1ms\nexpect network_drops == 0")
	f.Add("set topology dumbbell\nset topology leafspine:8,8\nrun 1us")
	f.Add("set fault linkdown fwd1 at 2ms for 300us\nrun 8ms\nexpect faults_recovered == 1")
	f.Add("set fault lossburst tx0 at 1ms for 200us prob 0.1 seed 7\nset fault nicstall at 4ms for 100us\nrun 6ms\nexpect fault_ttr_us < 5000")
	f.Add("set topology leafspine:2x2\nset ports 4\nset fault brownout leaf0->spine1 at 1ms for 1ms frac 0.25\nat 0ms start 0 tx 0 rx 1\nrun 4ms")
	f.Add("set fault linkdown fwd0 at 1ms for 1ms\nset fault linkdown fwd0 at 1.5ms for 1ms\nrun 3ms")
	f.Add("set pattern incast:period=1ms,fanin=4,victim=1,size=50\nrun 3ms\nexpect burst_absorption > 0.5")
	f.Add("set ports 4\nset pattern flood:peak=20G,victim=2,period=2ms,duty=0.5\nset pattern square:period=1ms,duty=0.2,peak=10G,base=1G\nat 0ms start 0 tx 0 rx 1\nrun 4ms\nexpect overload_us >= 0\nexpect peak_queue_bytes > 0")
	f.Add("set pattern mmpp:rates=1G|40G,dwell=1ms|250us,seed=7,dist=datamining\nrun 2ms\nexpect bg_fct_inflation > 0")
	f.Add("set pattern lognormal:rate=5G,sigma=1.5,victim=0\nset pattern saw:period=2ms,peak=20G,base=1G\nrun 1ms")
	f.Add("set algo dctcp\nset aqm dualpi2:target=5us,tupdate=25us,step=10us\nat 0ms start 0 tx 0 rx 1\nrun 2ms\nexpect ecn_mark_rate > 0\nexpect sojourn_p99_us < 100")
	f.Add("set aqm red:min=30000,max=90000,pmax=0.02\nrun 1ms")
	f.Add("set aqm codel:target=50us,interval=1ms\nset algo cubic\nrun 1ms\nexpect sojourn_p99_us >= 0")
	f.Add("set aqm pie:target=20us,tupdate=50us\nset aqm pi2:target=20us\nrun 1ms")
	// Step ECN in its spellings, which print as one ecn line.
	f.Add("set aqm ecn\nset ecn 0\nset aqm ecn:k=020\nrun 1ms")
	// Seeds the structural oracle needs and the old length-only oracle
	// could not tell apart: a drop range whose endpoints must survive the
	// round trip (psnA/psnB, not just "one action"), a single-psn drop
	// that must parse as a degenerate range, and two accumulated fault
	// clauses whose order and content must be preserved verbatim (the
	// length check saw "len(actions)==0" either way).
	f.Add("at 1ms drop flow 0 rx 1 psn 40..47\nat 0ms start 0 tx 0 rx 1 size 300\nrun 8ms\nexpect completions == 1")
	f.Add("at 1ms drop flow 3 rx 2 psn 9\nrun 2ms")
	f.Add("set fault lossburst tx1 at 1ms for 100us prob 0.5 seed 3\nset fault brownout fwd0 at 3ms for 200us frac 0.5\nrun 5ms")
	// Values past 32 bits, which the start action used to truncate (flow 0,
	// size 1), and a flow ID past the BRAM bound.
	f.Add("at 0ms start 4294967296 tx 0 rx 1 size 4294967297\nrun 1ms")
	f.Add("at 0ms start 0 tx 0 rx 1 size 4294967297\nrun 1ms")
	f.Add("at 0ms start 4000000000 tx 0 rx 1\nrun 1ms")
	// Printer seeds: a seed of 0, which Settings omits and Parse defaults
	// to 1; fault clauses accumulated over three lines, printed as one plan;
	// every example script.
	f.Add("set algo reno\nset seed 0\nat 0ms start 0 tx 0 rx 1 size 50\nrun 1ms")
	f.Add("set fault linkdown fwd0 at 1ms for 100us\nset fault nicstall at 2ms for 50us\nset fault lossburst tx0 at 3ms for 100us prob 0.1 seed 7\nrun 4ms\nexpect faults_recovered == 3")
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.scn"))
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example scripts: %v", err)
	}
	for _, path := range examples {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	// The grid directives: axes over several keys (seed and a value with
	// spaces among them), a report whose metrics take operands, drawn and
	// looping sizes on start and fanin, and operands on expect.
	f.Add("set flows 2\nsweep ecn 8,65\nsweep seed 1,2\nat 0ms fanin size 20..400 loop\nrun 1ms\nreport total_gbps fct_p99_us jain")
	f.Add("sweep faults linkdown fwd0 at 1ms for 100us,nicstall at 1ms for 50us\nat 0ms start 3 tx 0 rx 1 size 5..9\nrun 2ms\nreport fault_ttr_us fault_ttr_us 0 fault_pre_gbps 0 drops\nexpect fault_rtx 0 <= 3")
	f.Add("at 0ms start 0 tx 0 rx 1 size 300 loop\nat 1ms fanin\nat 2ms fanin size 7\nrun 2ms\nexpect flow_gbps 3 >= 1\nreport flow_gbps 0 bg_completions")
	// Per-flow CC on a start, and sweep values whose parameters hold commas.
	f.Add("set aqm dualpi2\nat 0ms start 0 tx 0 rx 1 cc cubic\nat 0ms start 1 tx 1 rx 2 size 9..90 loop cc dctcp\nrun 1ms\nreport band_share 1 sojourn_p99_us 0 sojourn_p99_us")
	f.Add("sweep aqm pie:target=10us,tupdate=50us,codel:target=10us,interval=500us,pi2\nsweep pattern flood:peak=80G,victim=2,ect=not,flood:peak=80G,victim=2,ect=ect1\nrun 1ms\nreport ecmp_imbalance")
	f.Fuzz(func(t *testing.T, src string) {
		s1, err := Parse(src)
		if err != nil {
			return
		}
		s2, err := Parse(src)
		if err != nil {
			t.Fatalf("accepted script failed to re-parse: %v", err)
		}
		sameScript(t, "parse is not deterministic", s1, s2, true)
		printed := s1.String()
		s3, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed script does not parse: %v\n%s", err, printed)
		}
		sameScript(t, "printed script parses to another scenario", s1, s3, false)
		if again := s3.String(); again != printed {
			t.Fatalf("printer is not a fixpoint:\n%s\nvs\n%s", printed, again)
		}
	})
}

// sameScript fails t unless a and b are deep-equal, line numbers aside
// unless withLines. A NaN (spec.Float and ParseFloat both take one) equals
// nothing, itself included, so a script holding one is compared by its
// printed form alone.
func sameScript(t *testing.T, what string, a, b *Scenario, withLines bool) {
	t.Helper()
	if !withLines {
		a, b = unnumbered(a), unnumbered(b)
	}
	if hasNaN(a) {
		return
	}
	if !reflect.DeepEqual(a.Spec, b.Spec) {
		t.Fatalf("%s: spec\n%+v\n%+v", what, a.Spec, b.Spec)
	}
	if !reflect.DeepEqual(a.Actions, b.Actions) {
		t.Fatalf("%s: actions\n%+v\n%+v", what, a.Actions, b.Actions)
	}
	if !reflect.DeepEqual(a.Steps, b.Steps) {
		t.Fatalf("%s: steps\n%s\nvs\n%s", what, a, b)
	}
	if !reflect.DeepEqual(a.Sweeps, b.Sweeps) || !reflect.DeepEqual(a.Report, b.Report) {
		t.Fatalf("%s: sweeps or report\n%s\nvs\n%s", what, a, b)
	}
}

// unnumbered is a copy of s with every line number zero.
func unnumbered(s *Scenario) *Scenario {
	c := *s
	c.Actions = append([]Action(nil), s.Actions...)
	for i := range c.Actions {
		c.Actions[i].Line = 0
	}
	c.Steps = append([]Step(nil), s.Steps...)
	for i := range c.Steps {
		c.Steps[i].Line = 0
	}
	return &c
}

func hasNaN(s *Scenario) bool {
	if math.IsNaN(s.Spec.DCQCNTimeScale) {
		return true
	}
	for _, st := range s.Steps {
		if st.Expect != nil && math.IsNaN(st.Expect.Value) {
			return true
		}
	}
	return false
}
