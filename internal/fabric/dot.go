package fabric

import (
	"fmt"
	"strings"
)

// DOTBody writes the fabric's nodes and edges into an open Graphviz
// digraph (the caller owns "digraph {...}"). Switch nodes carry live
// telemetry — received packets, queue drops, misroutes — and trunk edges
// carry per-port forwarded counts, so a rendering mid-run doubles as a
// per-hop load map; with PFC on, a dashed edge marks each host uplink the
// leaf can pause. hostNode names the graph node standing in for host h
// (the tester's data port, in core's rendering).
func (f *Fabric) DOTBody(b *strings.Builder, hostNode func(h int) string) {
	for _, n := range f.switches {
		var drops uint64
		for _, ps := range n.s.Stats().Ports {
			drops += ps.Drops
		}
		fmt.Fprintf(b, "  %s [shape=box,label=\"%s\\nrx %d, drops %d",
			dotID(n.name), n.name, n.s.RxPackets(), drops)
		if m := n.s.Misroutes(); m > 0 {
			fmt.Fprintf(b, ", misroutes %d", m)
		}
		b.WriteString("\"];\n")
	}
	for _, n := range f.switches {
		for port, peer := range n.peers {
			if peer < 0 {
				continue // host edges are drawn below, against hostNode
			}
			c := n.s.PortCounters(port)
			fmt.Fprintf(b, "  %s -> %s [label=\"p%d: %d pkts\"];\n",
				dotID(n.name), dotID(f.switches[peer].name), port, c.TxPackets)
		}
	}
	for h := 0; h < f.cfg.Hosts; h++ {
		leaf := f.switches[f.hosts[h].sw]
		up := f.hosts[h].up.Stats()
		down := leaf.s.PortCounters(f.hosts[h].port)
		fmt.Fprintf(b, "  %s -> %s [label=\"DATA h%d: %d pkts\"];\n",
			hostNode(h), dotID(leaf.name), h, up.TxPackets)
		fmt.Fprintf(b, "  %s -> %s [label=\"to h%d: %d pkts\"];\n",
			dotID(leaf.name), hostNode(h), h, down.TxPackets)
		if f.cfg.EnablePFC {
			fmt.Fprintf(b, "  %s -> %s [style=dashed,label=\"PFC pause\"];\n",
				dotID(leaf.name), hostNode(h))
		}
	}
}

// dotID makes a switch name safe as a Graphviz node identifier.
func dotID(name string) string {
	return "fab_" + strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}
