package scenario

import (
	"strings"
	"testing"

	"marlin/internal/sim"
)

func mustParse(t *testing.T, src string) *Scenario {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustRun(t *testing.T, src string) *Report {
	t.Helper()
	rep, err := mustParse(t, src).Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"empty", "", "no run"},
		{"unknown directive", "frobnicate\nrun 1ms", "unknown directive"},
		{"bad set", "set bogus 1\nrun 1ms", "unknown setting"},
		{"set after run", "run 1ms\nset algo reno", "set after run"},
		{"bad duration", "run 1parsec", "bad duration"},
		{"bad action", "at 0ms explode 1\nrun 1ms", "unknown action"},
		{"start missing rx", "at 0ms start 0 tx 0\nrun 1ms", "expected"},
		{"bad expect op", "run 1ms\nexpect jain ~ 1", "bad operator"},
		{"bad expect value", "run 1ms\nexpect jain >= fast", "bad value"},
		{"bad mark range", "at 0ms mark flow 0 rx 1 psn 9..2\nrun 1ms", "bad"},
		{"trailing tokens", "at 0ms start 0 tx 0 rx 1 size 5 extra 9\nrun 1ms", "trailing"},
		{"flow beyond 32 bits", "at 0ms start 4294967296 tx 0 rx 1 size 4294967297\nrun 1ms", "bad value"},
		{"size beyond 32 bits", "at 0ms start 0 tx 0 rx 1 size 4294967297\nrun 1ms", "bad size"},
		{"stop beyond 32 bits", "at 0ms stop 4294967296\nrun 1ms", "bad flow id"},
		{"at past the horizon", "set algo reno\nat 10ms start 0 tx 0 rx 1 size 50\nrun 5ms\nexpect completions == 0", "line 2: at 10ms is past the last run (5ms)"},
		{"at past staged runs", "run 1ms\nat 2500us stop 0\nrun 1ms", "line 2: at 2500us is past the last run (2ms)"},
		{"run past sim time", "run 2600h", "bad duration"},
		{"sweep without values", "sweep ecn\nrun 1ms", "sweep needs KEY v1,v2"},
		{"sweep unknown key", "sweep bogus 1,2\nrun 1ms", "unknown setting"},
		{"sweep bad value", "sweep ecn 8,x\nrun 1ms", `bad ecn "x"`},
		{"key swept twice", "sweep ecn 8,65\nsweep ecn 20\nrun 1ms", "ecn is already swept"},
		{"value swept twice", "sweep algo reno,dctcp,reno\nrun 1ms", `"reno" given twice`},
		{"sweep after run", "run 1ms\nsweep ecn 8,65", "sweep after run"},
		{"report unknown metric", "run 1ms\nreport total_gbps warp_factor", `report: unknown metric "warp_factor"`},
		{"empty report", "run 1ms\nreport", "want one report line, naming at least one metric"},
		{"report twice", "run 1ms\nreport jain\nreport rtx", "want one report line"},
		{"report operand missing", "run 1ms\nreport flow_gbps jain", "flow_gbps needs an operand"},
		{"expect operand missing", "run 1ms\nexpect fault_rtx >= 0", "fault_rtx needs an operand"},
		{"size range reversed", "at 0ms start 0 tx 0 rx 1 size 400..20\nrun 1ms", `start: bad size "400..20"`},
		{"size range from 0", "at 0ms fanin size 0..20\nrun 1ms", `fanin: bad size "0..20"`},
		{"one-point size range", "at 0ms fanin size 20..20\nrun 1ms", `bad size "20..20"`},
		{"loop without a size", "at 0ms start 0 tx 0 rx 1 loop\nrun 1ms", "loop needs a size"},
		{"loop after size 0", "at 0ms start 0 tx 0 rx 1 size 0 loop\nrun 1ms", "loop needs a size"},
		{"fanin loop without a size", "at 0ms fanin loop\nrun 1ms", "loop needs a size"},
		{"fanin trailing", "at 0ms fanin size 5 loop 3\nrun 1ms", "trailing tokens"},
		{"unknown cc", "at 0ms start 0 tx 0 rx 1 cc warp\nrun 1ms", `start: cc: unknown algorithm "warp"`},
		{"cc without a name", "at 0ms start 0 tx 0 rx 1 size 5 cc\nrun 1ms", "trailing tokens"},
		{"cc before size", "at 0ms start 0 tx 0 rx 1 cc cubic size 5\nrun 1ms", "trailing tokens"},
		{"cc on fanin", "at 0ms fanin cc cubic\nrun 1ms", "trailing tokens"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want contains %q", c.name, err, c.want)
		}
	}
}

// FLOW and size are 32-bit: the largest value of each parses as written
// (it used to be parsed as 64 bits and truncated, so 4294967296 started
// flow 0), and a flow ID the NIC's BRAM cannot hold fails the run with the
// tester's error instead of allocating tables up to it.
func TestScenarioStartRange(t *testing.T) {
	s := mustParse(t, "at 0ms start 4294967295 tx 0 rx 1 size 4294967295\nrun 1ms")
	if a := s.Actions[0]; a.Flow != 4294967295 || a.Size != 4294967295 {
		t.Errorf("start parsed as flow %d size %d, want 4294967295 both", a.Flow, a.Size)
	}
	_, err := mustParse(t, "set algo dctcp\nset ports 2\nat 0ms start 4000000000 tx 0 rx 1\nrun 1ms").Run()
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "exceeds BRAM capacity") {
		t.Errorf("start of flow 4000000000: err = %v, want the BRAM capacity error at line 3", err)
	}
}

// A start's cc operand prints back as written, and runs the flow under
// that algorithm: the CUBIC flow carries ECT(0) into DualPI2's classic
// band, the DCTCP flow ECT(1) into the L4S band, so each band delivers a
// share of the packets.
func TestScenarioStartCC(t *testing.T) {
	src := "set algo dctcp\nset ports 3\nset aqm dualpi2\n" +
		"at 0ms start 0 tx 0 rx 2\nat 0ms start 1 tx 1 rx 2 size 400 loop cc cubic\nrun 2ms\n" +
		"expect band_share 0 > 0\nexpect band_share 1 > 0\nreport sojourn_p99_us 0 sojourn_p99_us 1 band_share 1"
	s := mustParse(t, src)
	if a := s.Actions[1]; a.CC != "cubic" || a.Size != 400 || !a.Loop {
		t.Errorf("start parsed as %+v, want size 400 loop cc cubic", a)
	}
	if !strings.Contains(s.String(), "at 0ms start 1 tx 1 rx 2 size 400 loop cc cubic\n") {
		t.Errorf("String lost the cc operand:\n%s", s)
	}
	sameScript(t, "cc start round trip", s, mustParse(t, s.String()), false)
	if rep := mustRun(t, src); !rep.Passed() {
		t.Errorf("mixed-cc run:\n%s", rep.Summary())
	}
}

// A per-flow algorithm must share the deployed module's mode: a rate-based
// DCQCN flow under window-based DCTCP is refused when it starts, with its
// script line.
func TestScenarioStartCCModeRefused(t *testing.T) {
	_, err := mustParse(t, "set algo dctcp\nset ports 2\n\nat 0ms start 0 tx 0 rx 1 cc dcqcn\nrun 1ms").Run()
	if err == nil || !strings.Contains(err.Error(), "scenario line 4") || !strings.Contains(err.Error(), "dcqcn") {
		t.Errorf("dcqcn start under dctcp: err = %v, want it refused at line 4", err)
	}
}

func TestScenarioLineNumbersInErrors(t *testing.T) {
	_, err := Parse("set algo dctcp\n\n# comment\nat 0ms explode\nrun 1ms")
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("err = %v, want line 4", err)
	}
}

func TestScenarioSingleFlow(t *testing.T) {
	rep := mustRun(t, `
set algo dctcp
set ports 2
at 0ms start 0 tx 0 rx 1
run 2ms
expect false_losses == 0
expect total_gbps >= 80
expect flow_gbps 0 >= 80
expect rtt_ewma_us <= 50
expect rtt_p50_us <= 50
`)
	if !rep.Passed() {
		t.Fatalf("scenario failed:\n%s", rep.Summary())
	}
	if len(rep.Checks) != 5 {
		t.Fatalf("checks = %d", len(rep.Checks))
	}
}

func TestScenarioFanInWithFaults(t *testing.T) {
	rep := mustRun(t, `
# 2:1 fan-in with a scripted loss and an ECN burst
set algo dctcp
set ports 3
set ecn 65
set seed 9
at 0ms start 0 tx 0 rx 2
at 0ms start 1 tx 1 rx 2
at 0ms drop flow 0 rx 2 psn 500
at 0ms mark flow 1 rx 2 psn 100..150
run 4ms
expect false_losses == 0
expect rtx >= 1
expect jain >= 0.9
expect total_gbps >= 80
expect total_gbps <= 102
`)
	if !rep.Passed() {
		t.Fatalf("scenario failed:\n%s", rep.Summary())
	}
}

// An action at the horizon is legal (Engine.Run fires events at until),
// and a zero-length run is a run, not an expectation.
func TestScenarioStagedRunsAndStop(t *testing.T) {
	rep := mustRun(t, `
set algo dctcp
set ports 3
set ecn 65
at 0ms start 0 tx 0 rx 2
at 0ms start 1 tx 1 rx 2
run 3ms
run 0ms
at 3ms stop 1
at 6ms stop 0
run 3ms
expect flow_gbps 0 >= 60
`)
	if !rep.Passed() {
		t.Fatalf("scenario failed:\n%s", rep.Summary())
	}
	if rep.Elapsed.Seconds() != 0.006 {
		t.Fatalf("elapsed = %v", rep.Elapsed)
	}
}

func TestScenarioFiniteFlowsComplete(t *testing.T) {
	rep := mustRun(t, `
set algo reno
set ports 2
at 0ms start 0 tx 0 rx 1 size 100
run 10ms
expect completions == 1
expect fct_p50_us <= 1000
`)
	if !rep.Passed() {
		t.Fatalf("scenario failed:\n%s", rep.Summary())
	}
}

func TestScenarioFailureReported(t *testing.T) {
	rep := mustRun(t, `
set algo dctcp
set ports 2
at 0ms start 0 tx 0 rx 1
run 1ms
expect total_gbps >= 5000
`)
	if rep.Passed() {
		t.Fatal("impossible expectation passed")
	}
	fails := rep.Failures()
	if len(fails) != 1 || !strings.Contains(fails[0].Text, "5000") {
		t.Fatalf("failures = %+v", fails)
	}
	if !strings.Contains(rep.Summary(), "FAIL") {
		t.Fatal("summary missing FAIL")
	}
}

func TestScenarioSettingsApply(t *testing.T) {
	s := mustParse(t, `
set algo dcqcn
set ports 4
set mtu 1500
set ecn 20
set queue 1048576
set seed 42
set dcqcnscale 30
set receiver roce
set pfc on
set int on
set fpgarecv off
run 1ms
`)
	if s.Spec.Algorithm != "dcqcn" || s.Spec.Ports != 4 || s.Spec.MTU != 1500 ||
		s.Spec.AQM != "ecn:k=20" || s.Spec.NetQueueBytes != 1048576 ||
		s.Spec.Seed != 42 || s.Spec.DCQCNTimeScale != 30 ||
		s.Spec.Receiver != "roce" || !s.Spec.EnablePFC || !s.Spec.EnableINT ||
		s.Spec.ReceiverOnFPGA {
		t.Fatalf("spec = %+v", s.Spec)
	}
}

func TestScenarioUnknownMetric(t *testing.T) {
	s := mustParse(t, "set algo reno\nset ports 2\nrun 1ms\nexpect warp_factor >= 9")
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "unknown metric") {
		t.Fatalf("err = %v", err)
	}
}

func TestScenarioLinkFlapRecovery(t *testing.T) {
	// A 2ms blackout mid-flow — longer than the 500us RTO floor: the
	// link holds packets, RTOs fire, and the flow must still finish once
	// the link returns.
	rep := mustRun(t, `
set algo dctcp
set ports 2
at 0ms start 0 tx 0 rx 1 size 30000
at 500us flap rx 1 for 2ms
run 40ms
expect completions == 1
expect false_losses == 0
`)
	if !rep.Passed() {
		t.Fatalf("scenario failed:\n%s", rep.Summary())
	}
	if rep.Snapshot.NIC.Timeouts == 0 {
		t.Fatal("2ms blackout fired no RTOs")
	}
}

func TestScenarioFlapParseErrors(t *testing.T) {
	if _, err := Parse("at 0ms flap rx 1\nrun 1ms"); err == nil {
		t.Fatal("truncated flap parsed")
	}
	if _, err := Parse("at 0ms flap rx x for 1ms\nrun 1ms"); err == nil {
		t.Fatal("bad flap port parsed")
	}
}

func TestJainDeterministicAcrossRuns(t *testing.T) {
	// Regression: the jain metric used to accumulate goodput in map
	// iteration order, so its low float bits varied run to run for the
	// same script and seed. With sorted flow iteration the measured value
	// must be bit-identical on every run.
	const src = `
set algo dctcp
set ports 4
set seed 7
at 0ms start 0 tx 0 rx 3
at 0ms start 1 tx 1 rx 3
at 0ms start 2 tx 2 rx 3
run 3ms
expect jain >= 0.8
`
	var first float64
	for i := 0; i < 10; i++ {
		rep := mustRun(t, src)
		if len(rep.Checks) != 1 {
			t.Fatalf("run %d: checks = %d, want 1", i, len(rep.Checks))
		}
		got := rep.Checks[0].Measured
		if i == 0 {
			first = got
			continue
		}
		if got != first {
			t.Fatalf("run %d: jain = %v, differs from first run %v", i, got, first)
		}
	}
}

func TestScenarioTopologyDirective(t *testing.T) {
	rep := mustRun(t, `
set algo dctcp
set ports 4
set topology leafspine:2x2
at 0ms start 0 tx 0 rx 1 size 100
at 0ms start 1 tx 2 rx 3 size 100
run 20ms
expect completions == 2
expect misroutes == 0
expect false_losses == 0
`)
	if !rep.Passed() {
		t.Fatalf("leaf-spine scenario failed:\n%s", rep.Summary())
	}
	if len(rep.Snapshot.Network) != 4 {
		t.Fatalf("snapshot lists %d switches, want 4", len(rep.Snapshot.Network))
	}
}

func TestScenarioBadTopologyRejected(t *testing.T) {
	s := mustParse(t, "set algo dctcp\nset topology mesh\nrun 1ms")
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "topology") {
		t.Fatalf("bad topology deployed: %v", err)
	}
}

func TestScenarioSetFaultRecovery(t *testing.T) {
	rep := mustRun(t, `
set algo dctcp
set ports 2
set fault linkdown fwd1 at 2ms for 300us
at 0ms start 0 tx 0 rx 1
run 12ms
expect faults_recovered == 1
expect fault_ttr_us > 0
expect fault_ttr_us < 5000
`)
	if !rep.Passed() {
		t.Fatalf("checks failed:\n%s", rep.Summary())
	}
	if len(rep.Snapshot.Faults) != 1 {
		t.Fatalf("snapshot carries %d fault recoveries, want 1", len(rep.Snapshot.Faults))
	}
	if !rep.Snapshot.Faults[0].Recovered {
		t.Fatalf("snapshot recovery = %+v", rep.Snapshot.Faults[0])
	}
}

func TestScenarioSetFaultAccumulatesAndValidates(t *testing.T) {
	s := mustParse(t, `
set fault linkdown fwd0 at 1ms for 200us
set fault nicstall at 2ms for 50us
run 4ms
`)
	want := "linkdown fwd0 at 1ms for 200us; nicstall at 2ms for 50us"
	if s.Spec.Faults != want {
		t.Fatalf("accumulated spec = %q, want %q", s.Spec.Faults, want)
	}
	bad := []struct{ name, src, want string }{
		{"empty clause", "set fault\nrun 1ms", "set fault needs"},
		{"bad kind", "set fault explode fwd0 at 1ms for 1ms\nrun 1ms", "unknown kind"},
		{"overlap across clauses", "set fault linkdown fwd0 at 1ms for 1ms\nset fault linkdown fwd0 at 1.5ms for 1ms\nrun 3ms", "overlapping"},
		{"fault after run", "run 1ms\nset fault linkdown fwd0 at 1ms for 1ms", "set after run"},
	}
	for _, c := range bad {
		if _, err := Parse(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want contains %q", c.name, err, c.want)
		}
	}
}

func TestScenarioFaultMetricWithoutPlan(t *testing.T) {
	_, err := mustParse(t, "set algo dctcp\nrun 1ms\nexpect fault_ttr_us < 10").Run()
	if err == nil || !strings.Contains(err.Error(), "no fault plan") {
		t.Fatalf("err = %v, want no-fault-plan error", err)
	}
}

func TestScenarioSetPatternOverload(t *testing.T) {
	rep := mustRun(t, `
set algo dctcp
set ports 4
set pattern incast:period=1ms,fanin=8,victim=2,size=200
set pattern flood:peak=40G,victim=2,period=2ms,duty=0.5
at 0ms start 0 tx 0 rx 1
at 0ms start 1 tx 1 rx 3
run 6ms
expect burst_absorption > 0
expect burst_absorption <= 1
expect peak_queue_bytes > 0
expect overload_us >= 0
`)
	if !rep.Passed() {
		t.Fatalf("checks failed:\n%s", rep.Summary())
	}
	if rep.Snapshot.Overload == nil {
		t.Fatal("snapshot missing overload telemetry")
	}
	if rep.Snapshot.Overload.Delivered == 0 {
		t.Fatalf("overload report saw no delivered packets: %+v", rep.Snapshot.Overload)
	}
}

func TestScenarioSetPatternAccumulatesAndValidates(t *testing.T) {
	s := mustParse(t, `
set pattern incast:period=1ms,fanin=4,victim=0,size=50
set pattern flood:peak=20G,victim=0
run 2ms
`)
	want := "incast:period=1ms,fanin=4,victim=0,size=50; flood:peak=20G,victim=0"
	if s.Spec.Pattern != want {
		t.Fatalf("accumulated spec = %q, want %q", s.Spec.Pattern, want)
	}
	bad := []struct{ name, src, want string }{
		{"empty clause", "set pattern\nrun 1ms", "set pattern needs"},
		{"bad kind", "set pattern tsunami:peak=1G\nrun 1ms", "unknown pattern"},
		{"bad key", "set pattern flood:peak=1G,victim=0,frob=2\nrun 1ms", "unexpected"},
		{"pattern after run", "run 1ms\nset pattern flood:peak=1G,victim=0", "set after run"},
	}
	for _, c := range bad {
		if _, err := Parse(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want contains %q", c.name, err, c.want)
		}
	}
}

func TestScenarioSetAQM(t *testing.T) {
	rep := mustRun(t, `
set algo dctcp
set ports 3
set aqm dualpi2:target=5us,tupdate=25us,step=10us
set seed 9
at 0ms start 0 tx 0 rx 2
at 0ms start 1 tx 1 rx 2
run 2ms
expect ecn_mark_rate > 0
expect sojourn_p99_us > 0
expect sojourn_p99_us < 1000
expect false_losses == 0
`)
	if !rep.Passed() {
		t.Fatalf("AQM scenario failed:\n%s", rep.Summary())
	}
	found := false
	for _, sw := range rep.Snapshot.Network {
		for _, ps := range sw.Ports {
			if ps.AQM != nil && ps.AQM.Discipline == "dualpi2" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("snapshot missing the deployed discipline")
	}
}

func TestScenarioSetAQMValidates(t *testing.T) {
	bad := []struct{ name, src, want string }{
		{"bad discipline", "set aqm tailspin\nrun 1ms", "unknown discipline"},
		{"bad param", "set aqm pie:target=0s\nrun 1ms", "target"},
		{"aqm after run", "run 1ms\nset aqm pi2", "set after run"},
	}
	for _, c := range bad {
		if _, err := Parse(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want contains %q", c.name, err, c.want)
		}
	}
	// ecn and aqm write the one marking policy: the later set wins.
	for src, want := range map[string]string{
		"set algo dctcp\nset ecn 65\nset aqm pi2\nrun 1ms": "pi2",
		"set algo dctcp\nset aqm pi2\nset ecn 65\nrun 1ms": "ecn:k=65",
	} {
		if s := mustParse(t, src); s.Spec.AQM != want || s.Spec.Validate() != nil {
			t.Errorf("%q: AQM %q (%v), want %q", src, s.Spec.AQM, s.Spec.Validate(), want)
		}
	}
}

func TestScenarioSojournMetricWithoutAQM(t *testing.T) {
	_, err := mustParse(t, "set algo dctcp\nrun 1ms\nexpect sojourn_p99_us < 10").Run()
	if err == nil || !strings.Contains(err.Error(), "no AQM") {
		t.Fatalf("err = %v, want no-AQM error", err)
	}
}

func TestScenarioOverloadMetricWithoutPlan(t *testing.T) {
	_, err := mustParse(t, "set algo dctcp\nrun 1ms\nexpect burst_absorption > 0").Run()
	if err == nil || !strings.Contains(err.Error(), "no pattern plan") {
		t.Fatalf("err = %v, want no-pattern-plan error", err)
	}
}

// TestSetTakesEveryConfigurationKey: `set` goes through controlplane's key
// table, so keys only sweeps or flags reached before (flows, hops,
// linkdelay) work here, both boolean spellings do, and a whole faults plan
// can be written on one line the way the fuzzer renders it.
func TestSetTakesEveryConfigurationKey(t *testing.T) {
	s := mustParse(t, `
set algo dcqcn
set flows 3
set hops 2
set linkdelay 500ns
set pfc true
set int on
set fpgarecv off
set faults linkdown fwd0 at 1ms for 200us; nicstall at 2ms for 50us
set fault lossburst tx0 at 3ms for 100us prob 0.1 seed 7
run 1ms
`)
	want := s.Spec
	want.Algorithm, want.FlowsPerPort, want.ExtraHops, want.LinkDelay = "dcqcn", 3, 2, 500*sim.Nanosecond
	want.EnablePFC, want.EnableINT, want.ReceiverOnFPGA = true, true, false
	want.Faults = "linkdown fwd0 at 1ms for 200us; nicstall at 2ms for 50us; lossburst tx0 at 3ms for 100us prob 0.1 seed 7"
	if s.Spec != want || s.Spec.Seed != 1 {
		t.Fatalf("spec = %+v", s.Spec)
	}
	bad := []struct{ src, want string }{
		{"set\nrun 1ms", "set needs KEY VALUE"},
		{"set ports\nrun 1ms", "set needs KEY VALUE"},
		{"set ports -1\nrun 1ms", `bad ports "-1"`},
		{"set ports 4 5\nrun 1ms", `bad ports "4 5"`},
		{"set pfc maybe\nrun 1ms", `bad pfc "maybe"`},
		{"set linkdelay -2us\nrun 1ms", `bad duration "-2us"`},
		{"set seed -1\nrun 1ms", `bad seed "-1"`},
		{"set bogus 1\nrun 1ms", "have algo mtu ports"},
	}
	for _, c := range bad {
		if _, err := Parse(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err = %v, want contains %q", c.src, err, c.want)
		}
	}
	rep := mustRun(t, "set algo dctcp\nset ports 2\nset linkdelay 10us\nat 0ms start 0 tx 0 rx 1\nrun 1ms\nexpect rtt_p50_us >= 20\nexpect false_losses == 0")
	if !rep.Passed() {
		t.Fatalf("set linkdelay 10us did not stretch the RTT:\n%s", rep.Summary())
	}
}
