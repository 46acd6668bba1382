package fuzzer

import (
	"errors"
	"strings"
	"testing"

	"marlin/internal/cc"
	"marlin/internal/packet"
	"marlin/internal/scenario"
)

// stallConfig is a config whose scripted loss burst a healthy stack
// recovers from in a round trip or two, but which the historical RTO
// stall (one retransmission hole per timeout, stateOpen after every RTO)
// cannot finish before the horizon. The burst covers the tail of the
// flow, so no later arrivals generate dup ACKs and recovery must go
// through the timeout path — the exact path the stall breaks.
func stallConfig() Config {
	cfg, _, err := ParseRendered(`set algo reno
set ports 2
set dcqcnscale 30
set seed 99
at 0ms start 0 tx 0 rx 1 size 30
at 0ms drop flow 0 rx 1 psn 14..29
run 6ms
`)
	if err != nil {
		panic(err)
	}
	return cfg
}

// TestLivenessCatchesRTOStall reintroduces the PR 5 RTO-stall bug behind
// its test hook and proves the campaign's liveness oracle detects it: the
// mutated stack needs one RTO per lost packet, blowing the generator's
// completion headroom, while the fixed stack sails through.
func TestLivenessCatchesRTOStall(t *testing.T) {
	cfg := stallConfig()

	if v, err := CheckOne(cfg, OracleLiveness); err != nil {
		t.Fatal(err)
	} else if v != nil {
		t.Fatalf("fixed stack violates liveness: %s", v)
	}

	cc.SetLegacyRTOStall(true)
	defer cc.SetLegacyRTOStall(false)
	v, err := CheckOne(cfg, OracleLiveness)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("liveness oracle missed the reintroduced RTO stall")
	}
	if v.Oracle != OracleLiveness {
		t.Fatalf("wrong oracle fired: %s", v)
	}
}

// TestMinimizerShrinksRTOStallRepro runs the delta-debugger against the
// mutated stack and checks the repro it produces is minimal: a scenario
// of at most 10 script lines that still trips the oracle, and that parses
// back to the same config.
func TestMinimizerShrinksRTOStallRepro(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many minimization candidates")
	}
	cc.SetLegacyRTOStall(true)
	defer cc.SetLegacyRTOStall(false)

	// Start from a generated campaign config and graft in a tail-loss
	// burst on its first flow — the shape that forces recovery through
	// the RTO path, where the stall lives. The minimizer then has real
	// work: extra flows, scripted drops, and timeline noise to strip.
	cfg := Generate(21, 0)
	cfg.Spec.Faults, cfg.Spec.Pattern = "", ""
	cfg.finish(cfg.Horizon())
	if len(cfg.flows()) == 0 {
		t.Fatal("generated config has no flows")
	}
	f := cfg.flows()[0]
	if f.Size < 48 {
		f.Size = 96
		cfg.Actions = resized(cfg.Actions, f.Flow, f.Size)
	}
	// One RTO per hole under the stall: 32 holes x >= 500us RTO floor
	// overruns any generated horizon; proper recovery repairs them in a
	// couple of RTOs.
	cfg.Actions = append(cfg.Actions, scenario.Action{Kind: "drop", At: f.At, Flow: f.Flow, Rx: f.Rx, From: f.Size - 32, To: f.Size - 1})

	v, err := CheckOne(cfg, OracleLiveness)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatalf("stall not detected on enriched config:\n%s", cfg.Render(""))
	}

	min := Minimize(cfg, OracleLiveness)
	if v, err := CheckOne(min, OracleLiveness); err != nil || v == nil {
		t.Fatalf("minimized config no longer reproduces (v=%v err=%v)", v, err)
	}
	script := min.Render(OracleLiveness)
	lines := 0
	for _, l := range strings.Split(script, "\n") {
		l = strings.TrimSpace(l)
		if l != "" && !strings.HasPrefix(l, "#") {
			lines++
		}
	}
	if lines > 10 {
		t.Fatalf("minimized repro is %d lines, want <= 10:\n%s", lines, script)
	}
	drops := 0
	for _, a := range min.Actions {
		if a.Kind == "drop" {
			drops++
		}
	}
	if len(min.flows()) != 1 || drops > 1 || min.Spec.Pattern != "" || min.Spec.Faults != "" || min.Spec.AQM != "" {
		t.Fatalf("minimizer left slack:\n%s", script)
	}
}

// TestConservationCatchesImbalance feeds the conservation oracle a
// doctored ledger for each way a queue can break its balance.
func TestConservationCatchesImbalance(t *testing.T) {
	cfg := stallConfig()
	cases := []struct {
		name string
		q    queueBalance
	}{
		{"lost packet", queueBalance{Name: "fwd0", Enq: 10, Deq: 8, Len: 1}},
		{"conjured packet", queueBalance{Name: "fwd0", Enq: 5, Deq: 7, Len: 0}},
	}
	for _, tc := range cases {
		r := &runResult{Queues: []queueBalance{{Name: "ok", Enq: 4, Deq: 4}, tc.q}}
		if v := checkConservation(cfg, r); v == nil {
			t.Errorf("%s: conservation oracle missed %+v", tc.name, tc.q)
		}
	}
	clean := &runResult{Queues: []queueBalance{{Name: "fwd0", Enq: 10, Deq: 9, Len: 1}}}
	var faulted Config
	faulted.Spec.Faults = "x"
	if v := checkConservation(faulted, clean); v != nil {
		t.Errorf("false positive on balanced queue: %s", v)
	}
}

// TestSanityCatchesDoctoredCounters proves the sanity oracle fires on
// each §4.2 correctness-floor breach.
func TestSanityCatchesDoctoredCounters(t *testing.T) {
	cfg := stallConfig()
	r := &runResult{Goodput: map[packet.FlowID]uint64{}}
	r.Losses.FalseLosses = 3
	if v := checkSanity(cfg, r); v == nil || !strings.Contains(v.Detail, "false losses") {
		t.Errorf("missed false losses: %v", v)
	}
	r = &runResult{Goodput: map[packet.FlowID]uint64{}}
	r.Losses.Misroutes = 1
	if v := checkSanity(cfg, r); v == nil || !strings.Contains(v.Detail, "misroutes") {
		t.Errorf("missed misroutes: %v", v)
	}
	r = &runResult{Goodput: map[packet.FlowID]uint64{}, Sched: errors.New("fpga: port 0's scheduling FIFO holds two events of flow 7")}
	if v := checkSanity(cfg, r); v == nil || !strings.Contains(v.Detail, "two events") {
		t.Errorf("missed a scheduler self-check breach: %v", v)
	}
	r = &runResult{Goodput: map[packet.FlowID]uint64{0: 1 << 62}}
	if v := checkSanity(cfg, r); v == nil || !strings.Contains(v.Detail, "line-rate") {
		t.Errorf("missed superluminal goodput: %v", v)
	}
}

// TestCCStateOracleCleanOnAllAlgorithms drives every registered module
// through the seeded legal event stream; the oracle must stay quiet on
// the shipped implementations.
func TestCCStateOracleCleanOnAllAlgorithms(t *testing.T) {
	for _, algo := range cc.Names() {
		for seed := uint64(0); seed < 3; seed++ {
			if v := checkCCState(algo, seed); v != nil {
				t.Errorf("%s seed %d: %s", algo, seed, v)
			}
		}
	}
}

// TestRefEngineOracleClean samples the scheduler differential across
// seeds the fixed corpus in internal/sim never used.
func TestRefEngineOracleClean(t *testing.T) {
	for seed := uint64(1000); seed < 1010; seed++ {
		if v := checkRefEngine(seed); v != nil {
			t.Fatalf("seed %d: %s", seed, v)
		}
	}
}
