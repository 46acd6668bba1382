package fabric_test

import (
	"os"
	"path/filepath"
	"testing"

	"marlin/internal/controlplane"
	"marlin/internal/fabric"
	"marlin/internal/fuzzer"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/scenario"
	"marlin/internal/sim"
)

// FuzzFabricSpec checks that no input makes fabric.ParseSpec panic, and that an
// accepted spec prints (String) to text ParseSpec accepts again. An accepted
// spec of at most maxFuzzPorts switch ports is then built with 1 to 8 hosts
// and 0 to 2 extra hops (from the second input), and the network is checked
// against its counted shape: every LinkNames entry resolves to a link of
// its own, each switch has the ports Spec.SwitchPorts counts, and every
// link slab is filled exactly by the links wired. The seeds are the
// topologies the example scenarios and the fuzzer's generated
// configurations set.
func FuzzFabricSpec(f *testing.F) {
	for i, s := range specSeeds(f, func(sp controlplane.Spec) string { return sp.Topology }) {
		f.Add(s, uint8(i))
	}
	f.Fuzz(func(t *testing.T, src string, shape uint8) {
		s, err := fabric.ParseSpec(src)
		if err != nil {
			return
		}
		if _, err := fabric.ParseSpec(s.String()); err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", src, s.String(), err)
		}
		checkBuild(t, s, 1+int(shape%8), int(shape/8)%3)
	})
}

// maxFuzzPorts caps the switch ports of a fuzzed build, so one execution
// stays small.
const maxFuzzPorts = 512

// checkBuild builds s with the given hosts and extra hops, and checks the
// network against the shape's counts.
func checkBuild(t *testing.T, s fabric.Spec, hosts, extraHops int) {
	ports := 0
	for i := 0; i < s.Switches() && ports <= maxFuzzPorts; i++ {
		ports += s.SwitchPorts(i, hosts)
	}
	if ports > maxFuzzPorts {
		return
	}
	sinks := make([]netem.Node, hosts)
	for i := range sinks {
		sinks[i] = &netem.Sink{}
	}
	fab, err := fabric.Build(sim.NewEngine(), fabric.Config{
		Spec: s, Hosts: hosts, ExtraHops: extraHops, Seed: 1,
		Dst: func(*packet.Packet) int { return -1 }, Sinks: sinks,
	})
	if err != nil {
		if s.Kind == fabric.KindFatTree && hosts > s.K*s.K*s.K/4 {
			return // more hosts than the fat-tree has edge ports
		}
		t.Fatalf("%s with %d hosts: %v", s, hosts, err)
	}
	names := fab.LinkNames()
	seen := make(map[*netem.Link]string, len(names))
	for _, name := range names {
		l, err := fab.ResolveLink(name)
		if err != nil {
			t.Fatalf("%s with %d hosts: ResolveLink(%q): %v", s, hosts, name, err)
		}
		if prev, dup := seen[l]; dup {
			t.Fatalf("%s with %d hosts: %q and %q resolve to one link", s, hosts, prev, name)
		}
		seen[l] = name
	}
	sws := fab.Switches()
	if len(sws) != s.Switches() {
		t.Fatalf("%s built %d switches, want %d", s, len(sws), s.Switches())
	}
	for i, sw := range sws {
		if want := s.SwitchPorts(i, hosts); sw.Ports() != want {
			t.Fatalf("%s with %d hosts: %s has %d ports, counted %d", s, hosts, sw.Name(), sw.Ports(), want)
		}
	}
	placed, sized := fabric.SlabLens(fab)
	total := 0
	for k := range placed {
		if placed[k] != sized[k] {
			t.Fatalf("%s with %d hosts: slab %d holds %d links, sized for %d", s, hosts, k, placed[k], sized[k])
		}
		total += placed[k]
	}
	if want := len(names) + hosts*extraHops; total != want {
		t.Fatalf("%s with %d hosts, %d extra hops: slabs hold %d links, %d wired", s, hosts, extraHops, total, want)
	}
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
