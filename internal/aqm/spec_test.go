package aqm

import (
	"strings"
	"testing"

	"marlin/internal/sim"
)

func TestParseSpecDefaults(t *testing.T) {
	for name, kind := range map[string]Kind{
		"red": KindRED, "pie": KindPIE, "codel": KindCoDel,
		"pi2": KindPI2, "dualpi2": KindDualPI2,
	} {
		s, err := ParseSpec(name)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", name, err)
		}
		if s.Kind != kind || !s.Enabled() {
			t.Errorf("ParseSpec(%q).Kind = %v", name, s.Kind)
		}
		a := s.Build(256<<10, sim.NewRand(1))
		if a == nil || a.Name() != name {
			t.Errorf("Build(%q).Name() = %v", name, a)
		}
	}
	for _, off := range []string{"", "none", "  none  "} {
		s, err := ParseSpec(off)
		if err != nil || s.Enabled() || s.Build(1, nil) != nil {
			t.Errorf("ParseSpec(%q) = %+v, %v; want disabled", off, s, err)
		}
	}
}

// TestParseSpecStepECN: step ECN is a marking policy without a discipline
// object, and a bare "ecn" is the paper's K.
func TestParseSpecStepECN(t *testing.T) {
	for src, k := range map[string]int{"ecn": 65, "ecn:k=1": 1, " ecn:k=200 ": 200} {
		s, err := ParseSpec(src)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", src, err)
		}
		if s != (Spec{Kind: KindECN, K: k}) || !s.Enabled() || s.Build(256<<10, sim.NewRand(1)) != nil {
			t.Errorf("ParseSpec(%q) = %+v, want step ECN at k=%d with no discipline object", src, s, k)
		}
	}
	if s, _ := ParseSpec("ecn"); s.String() != "ecn:k=65" {
		t.Errorf("bare ecn prints as %q", s.String())
	}
}

func TestParseSpecOverrides(t *testing.T) {
	s, err := ParseSpec("dualpi2:target=5ms,coupling=4,step=500us,shift=2ms,tupdate=8ms,alpha=0.2,beta=2")
	if err != nil {
		t.Fatal(err)
	}
	if s.Target != 5*sim.Millisecond || s.Coupling != 4 || s.Step != 500*sim.Microsecond ||
		s.Shift != 2*sim.Millisecond || s.TUpdate != 8*sim.Millisecond ||
		s.Alpha != 0.2 || s.Beta != 2 {
		t.Fatalf("overrides not applied: %+v", s)
	}
	r, err := ParseSpec("red:min=20000,max=60000,maxp=0.05,w=0.01")
	if err != nil {
		t.Fatal(err)
	}
	if r.MinTh != 20000 || r.MaxTh != 60000 || r.MaxP != 0.05 || r.Weight != 0.01 {
		t.Fatalf("red overrides not applied: %+v", r)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		src, wantErr string
	}{
		{"fq_codel", "unknown discipline"},
		{"red:maxp=2", "maxp must be in"},
		{"red:w=1.5", "w must be in"},
		{"red:min=50000,max=40000", "min must be below max"},
		{"pie:target=0s", "target must be positive"},
		{"pi2:tupdate=0s", "tupdate must be positive"},
		{"codel:interval=0s", "interval must be positive"},
		{"dualpi2:coupling=0", "coupling must be positive"},
		{"codel:coupling=2", `unexpected "coupling" for codel`},
		{"red:target=5ms", `unexpected "target" for red`},
		{"pie:bogus=1", `unexpected "bogus"`},
		{"pie:target=xyz", "bad duration"},
		{"pie:target=5ms,target=6ms", "duplicate key"},
		{"ecn:k=0", "k must be at least 1"},
		{"ecn:k=-4", `bad k "-4"`},
		{"ecn:target=5ms", `unexpected "target" for ecn`},
		{"pi2:k=65", `unexpected "k" for pi2`},
		{"none:target=5ms", `unexpected "target" for none`},
	}
	for _, tc := range cases {
		_, err := ParseSpec(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ParseSpec(%q) err = %v, want containing %q", tc.src, err, tc.wantErr)
		}
	}
}

// TestSpecStringRoundTrips: String output re-parses to the same spec for
// every discipline (with RED thresholds pinned, since zero means
// capacity-scaled).
func TestSpecStringRoundTrips(t *testing.T) {
	srcs := []string{
		"red:min=30000,max=90000",
		"pie", "codel", "pi2", "dualpi2",
		"dualpi2:target=5ms,coupling=4",
		"dualpi2:tupdate=25us,alpha=0.5,step=10us",
		"pie:ecnth=0.25,target=20us",
		"ecn", "ecn:k=1",
	}
	for _, src := range srcs {
		s, err := ParseSpec(src)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("re-parsing %q: %v", s.String(), err)
		}
		// Specs are plain comparable values and String renders every
		// parseable knob, so the round trip must be exact.
		if back != s {
			t.Errorf("%q round-tripped to %+v, want %+v", src, back, s)
		}
	}
}

func TestREDThresholdsScaleToCapacity(t *testing.T) {
	s, _ := ParseSpec("red")
	r := s.Build(120000, sim.NewRand(1)).(*RED)
	if r.minTh != 20000 || r.maxTh != 60000 {
		t.Fatalf("capacity-scaled thresholds = %d/%d, want 20000/60000", r.minTh, r.maxTh)
	}
}
