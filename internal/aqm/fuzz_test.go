package aqm_test

import (
	"os"
	"path/filepath"
	"testing"

	"marlin/internal/aqm"
	"marlin/internal/controlplane"
	"marlin/internal/fuzzer"
	"marlin/internal/scenario"
)

// FuzzAQMSpec checks that no input makes aqm.ParseSpec panic, and that an
// accepted spec prints (String) to text ParseSpec accepts again. The seeds
// are the AQM specs the example scenarios and the fuzzer's generated
// configurations set.
func FuzzAQMSpec(f *testing.F) {
	for _, s := range specSeeds(f, func(sp controlplane.Spec) string { return sp.AQM }) {
		f.Add(s)
	}
	// A duration once printed as "2e+06s", which does not parse.
	f.Add("codel:target=2000000s")
	f.Fuzz(func(t *testing.T, src string) {
		s, err := aqm.ParseSpec(src)
		if err != nil {
			return
		}
		if _, err := aqm.ParseSpec(s.String()); err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", src, s.String(), err)
		}
	})
}

// specSeeds collects one Spec field, once each, from every example
// scenario and from the first 200 configurations of a fuzz campaign.
func specSeeds(f *testing.F, field func(controlplane.Spec) string) []string {
	paths, _ := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.scn"))
	if len(paths) == 0 {
		f.Fatal("no example scenarios")
	}
	var specs []controlplane.Spec
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		s, err := scenario.Parse(string(src))
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		specs = append(specs, s.Spec)
	}
	for i := range 200 {
		specs = append(specs, fuzzer.Generate(1, i).Spec)
	}
	seen := map[string]bool{}
	var out []string
	for _, sp := range specs {
		if s := field(sp); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
