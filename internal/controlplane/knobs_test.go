package controlplane

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"marlin/internal/sim"
)

// knobSamples holds one non-zero value per key. A key without a sample fails
// TestKnobTable, so a new row arrives with its round-trip coverage.
var knobSamples = map[string]string{
	"algo":       "dcqcn",
	"mtu":        "1500",
	"ports":      "6",
	"flows":      "3",
	"receiver":   "roce",
	"ecn":        "65",
	"aqm":        "dualpi2:target=25us,tupdate=100us,step=50us",
	"queue":      "262144",
	"int":        "on",
	"pfc":        "true",
	"fpgarecv":   "1",
	"hops":       "2",
	"topology":   "leafspine:2x2",
	"linkdelay":  "1500ns",
	"dcqcnscale": "30",
	"faults":     "linkdown fwd1 at 2ms for 300us; nicstall at 4ms for 100us",
	"pattern":    "incast:period=5ms,fanin=8,victim=1,size=150; flood:peak=20G,victim=1",
	"shards":     "4",
	"seed":       "18446744073709551615",
}

// apiOnly are the exported Spec fields with no table row, each for a reason
// DESIGN.md "Configuration surface" gives.
var apiOnly = map[string]bool{"PortRate": true, "Params": true, "ECNThresholdPkts": true}

// shorthands are the keys that write another key's field: ecn N is aqm
// "ecn:k=N".
var shorthands = map[string]string{"ecn": "aqm"}

// knobFields maps each key to the one Spec field its sample changes.
func knobFields(t *testing.T) map[string]string {
	t.Helper()
	fields := make(map[string]string)
	for _, k := range knobs {
		sample, ok := knobSamples[k.name]
		if !ok {
			t.Fatalf("key %q has no entry in knobSamples", k.name)
		}
		var s Spec
		if err := s.Set(k.name, sample); err != nil {
			t.Fatalf("Set(%q, %q): %v", k.name, sample, err)
		}
		v := reflect.ValueOf(s)
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).IsZero() {
				if prev, dup := fields[k.name]; dup {
					t.Fatalf("key %q changed both %s and %s", k.name, prev, v.Type().Field(i).Name)
				}
				fields[k.name] = v.Type().Field(i).Name
			}
		}
		if fields[k.name] == "" {
			t.Fatalf("Set(%q, %q) changed no field", k.name, sample)
		}
	}
	return fields
}

func TestKnobTable(t *testing.T) {
	fields := knobFields(t)

	// Every exported field is reachable by name or deliberately API-only.
	owner := make(map[string]string)
	for key, f := range fields {
		if long, ok := shorthands[key]; ok {
			if fields[long] != f {
				t.Errorf("shorthand %q writes %s, not %q's field %s", key, f, long, fields[long])
			}
			continue
		}
		if prev, dup := owner[f]; dup {
			t.Errorf("field %s has two keys: %q and %q", f, prev, key)
		}
		owner[f] = key
	}
	typ := reflect.TypeOf(Spec{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, ok := owner[name]; ok == apiOnly[name] {
			t.Errorf("Spec.%s: has a table row = %v, listed API-only = %v; give it exactly one", name, ok, apiOnly[name])
		}
	}

	// Set -> Settings -> Set reproduces the spec, key by key and all at once.
	var all Spec
	for _, k := range knobs {
		var one Spec
		for _, s := range []*Spec{&one, &all} {
			if err := s.Set(k.name, knobSamples[k.name]); err != nil {
				t.Fatal(err)
			}
		}
		list := one.Settings()
		if len(list) != 1 || list[0].Key != k.name {
			t.Errorf("%s: Settings() = %v, want just that key", k.name, list)
		}
		if back := replay(t, list); !reflect.DeepEqual(back, one) {
			t.Errorf("%s: round trip %+v != %+v", k.name, back, one)
		}
	}
	list := all.Settings()
	if back := replay(t, list); !reflect.DeepEqual(back, all) {
		t.Errorf("full round trip %+v != %+v", back, all)
	}
	if len(list) != len(knobs)-len(shorthands) {
		t.Errorf("Settings() = %v, want every key but the shorthands (the later aqm replaced ecn)", list)
	}
	row := 0
	for _, kv := range list {
		for row < len(knobs) && knobs[row].name != kv.Key {
			row++
		}
		if row == len(knobs) {
			t.Fatalf("Settings() order %v does not follow the table", list)
		}
	}
	if all.LinkDelay != 1500*sim.Nanosecond || all.Seed != 1<<64-1 || !all.EnablePFC || !all.ReceiverOnFPGA {
		t.Errorf("samples parsed to %+v", all)
	}
	if got := (&Spec{}).Settings(); got != nil {
		t.Errorf("zero Spec lists %v", got)
	}
}

// TestStepECNShorthand: ecn N writes aqm "ecn:k=N", the later of the two
// keys wins, ecn 0 clears step ECN and no other discipline, and aqm writes
// step ECN in the one spelling Settings lists under ecn.
func TestStepECNShorthand(t *testing.T) {
	for _, c := range []struct {
		sets    [][2]string
		aqm     string
		setting []Setting
	}{
		{[][2]string{{"ecn", "65"}}, "ecn:k=65", []Setting{{"ecn", "65"}}},
		{[][2]string{{"ecn", "65"}, {"aqm", "pi2"}}, "pi2", []Setting{{"aqm", "pi2"}}},
		{[][2]string{{"aqm", "pi2"}, {"ecn", "8"}}, "ecn:k=8", []Setting{{"ecn", "8"}}},
		{[][2]string{{"aqm", "pi2"}, {"ecn", "0"}}, "pi2", []Setting{{"aqm", "pi2"}}},
		{[][2]string{{"ecn", "65"}, {"ecn", "0"}}, "", nil},
		{[][2]string{{"aqm", "ecn"}}, "ecn:k=65", []Setting{{"ecn", "65"}}},
		{[][2]string{{"aqm", " ecn:k=020"}}, "ecn:k=20", []Setting{{"ecn", "20"}}},
		{[][2]string{{"aqm", "ecn:k=20"}, {"ecn", "0"}}, "", nil},
	} {
		var s Spec
		for _, kv := range c.sets {
			if err := s.Set(kv[0], kv[1]); err != nil {
				t.Fatalf("%v: %v", c.sets, err)
			}
		}
		if s.AQM != c.aqm || !reflect.DeepEqual(s.Settings(), c.setting) {
			t.Errorf("%v: AQM %q, Settings %v; want %q, %v", c.sets, s.AQM, s.Settings(), c.aqm, c.setting)
		}
	}
	var s Spec
	if err := s.Set("ecn", "-1"); err == nil || err.Error() != `bad ecn "-1"` {
		t.Errorf("ecn -1: %v", err)
	}
}

// A Go-built spec's ECNThresholdPkts is listed under ecn, so the script a
// spec prints (a fuzz repro) reads back through Set to the same marking.
func TestSettingsListECNThresholdPkts(t *testing.T) {
	for _, s := range []Spec{
		{Algorithm: "dctcp", ECNThresholdPkts: 65},
		{Algorithm: "dcqcn", Ports: 4, ECNThresholdPkts: 8, Topology: "leafspine:2x2"},
	} {
		list := s.Settings()
		if want := (Setting{"ecn", strconv.Itoa(s.ECNThresholdPkts)}); !slices.Contains(list, want) {
			t.Errorf("%+v: Settings() = %v, want it to list %v", s, list, want)
		}
		back := replay(t, list)
		cs, err := s.compile()
		if err != nil {
			t.Fatal(err)
		}
		cb, err := back.compile()
		if err != nil {
			t.Fatalf("replayed %v: %v", list, err)
		}
		we, wa := cs.cfg.Marking()
		ge, ga := cb.cfg.Marking()
		if ge != we || ga != wa || !we.Enable {
			t.Errorf("%+v: replayed marking %+v %v, want %+v %v", s, ge, ga, we, wa)
		}
	}
}

func replay(t *testing.T, list []Setting) Spec {
	t.Helper()
	var s Spec
	for _, kv := range list {
		if err := s.Set(kv.Key, kv.Value); err != nil {
			t.Fatalf("replaying %v: %v", kv, err)
		}
	}
	return s
}

func TestSetErrors(t *testing.T) {
	var s Spec
	err := s.Set("bogus", "1")
	if err == nil {
		t.Fatal("unknown key accepted")
	}
	for _, k := range knobs {
		if !strings.Contains(err.Error(), " "+k.name) && !strings.Contains(err.Error(), "("+k.name) {
			t.Errorf("unknown-key error %q does not name %q", err, k.name)
		}
	}
	// Scalars keep internal/spec's wording, whoever the caller is.
	for _, c := range []struct{ key, val, want string }{
		{"seed", "-1", `bad seed "-1"`},
		{"ports", "-1", `bad ports "-1"`},
		{"queue", "64k", `bad queue "64k"`},
		{"pfc", "maybe", `bad pfc "maybe"`},
		{"linkdelay", "-2us", `bad duration "-2us"`},
		{"linkdelay", "fast", `bad duration "fast"`},
		{"dcqcnscale", "x", `bad dcqcnscale "x"`},
	} {
		if err := s.Set(c.key, c.val); err == nil || err.Error() != c.want {
			t.Errorf("Set(%s, %s) = %v, want %s", c.key, c.val, err, c.want)
		}
	}
	// Spec-language values must compile where they are written.
	for _, c := range [][2]string{{"aqm", "red:pmax=2"}, {"faults", "explode fwd0 at 1ms for 1ms"}, {"pattern", "tsunami:peak=1G"}} {
		if err := s.Set(c[0], c[1]); err == nil {
			t.Errorf("Set(%s, %q) accepted", c[0], c[1])
		}
	}
	if !reflect.DeepEqual(s, Spec{}) {
		t.Errorf("failed Sets left %+v behind", s)
	}
	// Both boolean spellings, and clearing.
	for _, on := range []string{"on", "true", "1", "t", "TRUE"} {
		s.EnablePFC = false
		if err := s.Set("pfc", on); err != nil || !s.EnablePFC {
			t.Errorf("pfc %s: %v, %v", on, s.EnablePFC, err)
		}
	}
	for _, off := range []string{"off", "false", "0", "F"} {
		s.EnablePFC = true
		if err := s.Set("pfc", off); err != nil || s.EnablePFC {
			t.Errorf("pfc %s: %v, %v", off, s.EnablePFC, err)
		}
	}
	if err := s.Set("aqm", ""); err != nil {
		t.Errorf("clearing aqm: %v", err)
	}
}

func TestBindFlags(t *testing.T) {
	s := Spec{Ports: 4, AQM: "ecn:k=65"}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var usage strings.Builder
	fs.SetOutput(&usage)
	s.BindFlags(fs)
	err := fs.Parse([]string{"-pfc", "-int=off", "-ecn", "8", "-linkdelay=2us", "-faults", "nicstall at 1ms for 10us"})
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Ports: 4, AQM: "ecn:k=8", EnablePFC: true, LinkDelay: 2 * sim.Microsecond, Faults: "nicstall at 1ms for 10us"}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("parsed %+v, want %+v", s, want)
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != len(knobs) {
		t.Errorf("%d flags for %d keys", n, len(knobs))
	}
	fs.PrintDefaults()
	if !strings.Contains(usage.String(), "(default 65)") || !strings.Contains(usage.String(), "(default 4)") {
		t.Errorf("the starting spec is not shown as the defaults:\n%s", usage.String())
	}
	if err := fs.Parse([]string{"-ports", "-1"}); err == nil || !strings.Contains(err.Error(), `bad ports "-1"`) {
		t.Errorf("-ports -1: %v", err)
	}
}

// TestReadmeKeyTable keeps README's "Configuration keys" table equal to the
// knobs table: same rows, same order, same field and help text.
func TestReadmeKeyTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	fields := knobFields(t)
	var want strings.Builder
	want.WriteString("| key | `TestConfig` field | meaning |\n|---|---|---|\n")
	for _, k := range knobs {
		fmt.Fprintf(&want, "| `%s` | `%s` | %s |\n", k.name, fields[k.name], k.help)
	}
	if !strings.Contains(string(readme), want.String()) {
		t.Errorf("README.md \"Configuration keys\" table is out of date; it should read:\n%s", want.String())
	}
}
