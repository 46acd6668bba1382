package fuzzer

import (
	"bytes"
	"flag"
	"reflect"
	"strings"
	"testing"

	"marlin/internal/controlplane"
	"marlin/internal/sim"
)

func TestGenerateDeterministic(t *testing.T) {
	for i := 0; i < 20; i++ {
		a, b := Generate(42, i), Generate(42, i)
		if a.Render("") != b.Render("") {
			t.Fatalf("config %d not deterministic", i)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("config %d invalid: %v\n%s", i, err, a.Render(""))
		}
	}
}

// TestRenderRoundTrip: a rendered case parses back to the same case, line
// numbers aside, and so replays the same run. The seed-0 case is one a
// printer that omits "set seed 0" replays under Parse's default seed 1.
func TestRenderRoundTrip(t *testing.T) {
	cases := []Config{Generate(3084005441886510600, 24)}
	if cases[0].Spec.Seed != 0 {
		t.Fatalf("case seed %d, want the seed-0 case", cases[0].Spec.Seed)
	}
	for i := 0; i < 200; i++ {
		cases = append(cases, Generate(7, i))
	}
	for i, cfg := range cases {
		text := cfg.Render(OracleLiveness)
		back, oracle, err := ParseRendered(text)
		if err != nil {
			t.Fatalf("case %d: %v\n%s", i, err, text)
		}
		if oracle != OracleLiveness {
			t.Fatalf("case %d: oracle %q", i, oracle)
		}
		for j := range back.Actions {
			back.Actions[j].Line = 0
		}
		for j := range back.Steps {
			back.Steps[j].Line = 0
		}
		if !reflect.DeepEqual(back, cfg) {
			t.Fatalf("case %d parses back to another case:\n%s\nvs\n%s", i, text, back.Render(OracleLiveness))
		}
	}
	direct, err := execute(cases[0])
	if err != nil {
		t.Fatal(err)
	}
	back, _, _ := ParseRendered(cases[0].Render(""))
	replayed, err := execute(back)
	if err != nil {
		t.Fatal(err)
	}
	if direct.digest() != replayed.digest() {
		t.Fatalf("the seed-0 case replays another run: %d vs %d DATA packets", direct.Snap.Switch.DataTx, replayed.Snap.Switch.DataTx)
	}
}

func TestCheckAllCleanOnSmallCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run oracle checks")
	}
	for i := 0; i < 6; i++ {
		cfg := Generate(1, i)
		vs, err := CheckAll(cfg)
		if err != nil {
			t.Fatalf("config %d errored: %v\n%s", i, err, cfg.Render(""))
		}
		for _, v := range vs {
			t.Errorf("config %d: %s\n%s", i, v, cfg.Render(""))
		}
	}
}

func TestCampaignOutputDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the campaign twice")
	}
	run := func(workers int) string {
		var b bytes.Buffer
		if _, err := RunCampaign(CampaignOptions{N: 4, Seed: 3, Workers: workers, Out: &b}); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	one, four := run(1), run(4)
	if one != four {
		t.Fatalf("campaign output differs between -j 1 and -j 4:\n--- j1\n%s--- j4\n%s", one, four)
	}
	if !strings.Contains(one, "4 configs checked") {
		t.Fatalf("missing tally:\n%s", one)
	}
}

func TestPoolLeakAuditClean(t *testing.T) {
	for i := 0; i < 12; i++ {
		cfg := Generate(5, i)
		if !cfg.quietEligible() {
			continue
		}
		v, err := CheckOne(cfg, OraclePoolLeak)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if v != nil {
			t.Fatalf("config %d: %s\n%s", i, v, cfg.Render(""))
		}
		return // one clean audit is enough; the campaign audits every quiet case
	}
	t.Skip("no quiet config in the first 12")
}

func TestHorizonHeadroom(t *testing.T) {
	// The liveness oracle is only as good as the generator's headroom
	// guarantee: a quiet config's flows must complete comfortably before
	// the horizon so a completion miss always means a stack bug.
	for i := 0; i < 30; i++ {
		cfg := Generate(11, i)
		if !cfg.quietEligible() {
			continue
		}
		var latest sim.Duration
		for _, f := range cfg.flows() {
			if f.At > latest {
				latest = f.At
			}
		}
		if cfg.Horizon() < latest+5*sim.Millisecond {
			t.Fatalf("config %d horizon %s leaves < 5ms after last start %s", i, cfg.Horizon(), latest)
		}
	}
}

// notFuzzed lists the configuration keys the generator deliberately never
// draws. A key added to controlplane's table must either reach Generate or
// be listed here with the reason, so no knob goes unfuzzed by omission.
var notFuzzed = map[string]string{
	"mtu":       "flow sizes, drop PSN ranges and horizons are calibrated in 1024 B packets",
	"flows":     "traffic is scripted flow by flow (start actions); Deploy never reads FlowsPerPort",
	"receiver":  "the receiver follows the algorithm's mode; forcing the other one is an ablation, not a config the oracles hold for",
	"queue":     "the liveness and conservation budgets assume the default 256 KiB buffers",
	"pfc":       "excluded by shards, which the generator draws; a lossless fabric also hides the drops liveness exercises",
	"fpgarecv":  "excluded by shards, which the generator draws",
	"hops":      "excluded by topology, which the generator draws instead",
	"linkdelay": "horizons give 5 ms of headroom at the default 2 us links; the scale oracle varies delay itself",
}

func TestEveryKeyFuzzedOrExcused(t *testing.T) {
	var table controlplane.Spec
	fs := flag.NewFlagSet("keys", flag.ContinueOnError)
	table.BindFlags(fs)
	drawn, isKey := map[string]bool{}, map[string]bool{}
	for i := 0; i < 200; i++ {
		cfg := Generate(1, i)
		for _, kv := range cfg.Spec.Settings() {
			drawn[kv.Key] = true
		}
	}
	fs.VisitAll(func(f *flag.Flag) {
		switch why, excused := notFuzzed[f.Name]; {
		case drawn[f.Name] && excused:
			t.Errorf("key %q is listed in notFuzzed (%s) but Generate draws it", f.Name, why)
		case !drawn[f.Name] && !excused:
			t.Errorf("key %q is never drawn by Generate(1, 0..199): draw it or add it to notFuzzed with a reason", f.Name)
		}
		isKey[f.Name] = true
	})
	for k := range notFuzzed {
		if !isKey[k] {
			t.Errorf("notFuzzed lists %q, which is not a configuration key", k)
		}
	}
}
