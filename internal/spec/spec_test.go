package spec

import (
	"strings"
	"testing"

	"marlin/internal/sim"
)

func TestDuration(t *testing.T) {
	d, err := Duration("2ms")
	if err != nil || d != 2*sim.Millisecond {
		t.Fatalf("Duration(2ms) = %v, %v", d, err)
	}
	for _, bad := range []string{"", "x", "-1ms", "2", "2600h"} {
		if _, err := Duration(bad); err == nil {
			t.Errorf("Duration(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), "bad duration") {
			t.Errorf("Duration(%q) error wording: %v", bad, err)
		}
	}
}

func TestScalars(t *testing.T) {
	if f, err := Float("frac", "0.25"); err != nil || f != 0.25 {
		t.Fatalf("Float = %v, %v", f, err)
	}
	if _, err := Float("frac", "x"); err == nil || err.Error() != `bad frac "x"` {
		t.Fatalf("Float error wording: %v", err)
	}
	if n, err := Uint("seed", "7"); err != nil || n != 7 {
		t.Fatalf("Uint = %v, %v", n, err)
	}
	if _, err := Uint("seed", "-1"); err == nil || err.Error() != `bad seed "-1"` {
		t.Fatalf("Uint error wording: %v", err)
	}
	if n, err := Int("fanin", "8"); err != nil || n != 8 {
		t.Fatalf("Int = %v, %v", n, err)
	}
	for _, bad := range []string{"-3", "x", "1.5"} {
		if _, err := Int("fanin", bad); err == nil {
			t.Errorf("Int(%q) accepted", bad)
		}
	}
}

func TestRate(t *testing.T) {
	cases := map[string]sim.Rate{
		"40G":    40 * sim.Gbps,
		"40Gbps": 40 * sim.Gbps,
		"2.5G":   2500 * sim.Mbps,
		"500M":   500 * sim.Mbps,
		"1T":     sim.Tbps,
		"800K":   800 * sim.Kbps,
		"1000":   1000,
		"0":      0,
	}
	for in, want := range cases {
		got, err := Rate("peak", in)
		if err != nil || got != want {
			t.Errorf("Rate(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "x", "-1G", "G", "bps", "10Q"} {
		if _, err := Rate("peak", bad); err == nil {
			t.Errorf("Rate(%q) accepted", bad)
		}
	}
}

func TestFormatRateRoundTrips(t *testing.T) {
	for _, r := range []sim.Rate{40 * sim.Gbps, 2500 * sim.Mbps, sim.Tbps, 800 * sim.Kbps, 250} {
		s := FormatRate(r)
		back, err := Rate("rate", s)
		if err != nil || back != r {
			t.Errorf("FormatRate(%v) = %q, reparsed %v, %v", r, s, back, err)
		}
	}
}

func TestPairs(t *testing.T) {
	ps, err := Pairs("period=10ms,duty=0.2,peak=40G")
	if err != nil {
		t.Fatal(err)
	}
	want := []Pair{{"period", "10ms"}, {"duty", "0.2"}, {"peak", "40G"}}
	if len(ps) != len(want) {
		t.Fatalf("got %d pairs", len(ps))
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Errorf("pair %d = %v, want %v", i, ps[i], want[i])
		}
	}
	for _, bad := range []string{"", "noequals", "=v", "k=", "a=1,,b=2", "a=1,a=2"} {
		if _, err := Pairs(bad); err == nil {
			t.Errorf("Pairs(%q) accepted", bad)
		}
	}
}

func TestBool(t *testing.T) {
	for in, want := range map[string]bool{"on": true, "true": true, "1": true, "T": true, "off": false, "false": false, "0": false, "f": false} {
		if b, err := Bool("pfc", in); err != nil || b != want {
			t.Errorf("Bool(%q) = %v, %v", in, b, err)
		}
	}
	for _, bad := range []string{"", "maybe", "ON", "yes"} {
		if _, err := Bool("pfc", bad); err == nil || err.Error() != `bad pfc "`+bad+`"` {
			t.Errorf("Bool(%q) error wording: %v", bad, err)
		}
	}
}

func TestFormatDurationRoundTrips(t *testing.T) {
	for d, want := range map[sim.Duration]string{
		0:                       "0ms",
		2 * sim.Millisecond:     "2ms",
		12300 * sim.Microsecond: "12300us",
		1500 * sim.Nanosecond:   "1500ns",
		30 * sim.Second:         "30000ms",
	} {
		got := FormatDuration(d)
		if got != want {
			t.Errorf("FormatDuration(%d) = %q, want %q", d, got, want)
		}
		if back, err := Duration(got); err != nil || back != d {
			t.Errorf("Duration(%q) = %v, %v, want %v", got, back, err, d)
		}
	}
}
