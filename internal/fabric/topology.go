package fabric

import (
	"fmt"

	"marlin/internal/packet"
)

// The builders below share two conventions. Ports: every switch numbers
// its local host downlinks first, then its trunk/uplink ports, and a
// bidirectional port pair shares one index (the link arriving from a
// neighbor is attributed to the port facing that neighbor). Placement:
// host h attaches to leaf-tier switch h mod <leaf count>, so any tester
// port mix spreads across racks deterministically. Spec.SwitchPorts counts
// the ports each builder wires.

// buildSingle wires the zero shape, the §7.1 tested network: one switch
// with host h's downlink on port h, fed by every host uplink.
func (f *Fabric) buildSingle() {
	n := f.addSwitch("tested-network")
	f.attachHosts(n)
	n.s.SetRoute(f.dst)
}

// buildDumbbell wires two switches over a single trunk — the classic
// shared-bottleneck shape. Even hosts live left, odd hosts right; any
// even-to-odd flow crosses the trunk.
func (f *Fabric) buildDumbbell() {
	sides := [2]*sw{f.addSwitch("left"), f.addSwitch("right")}
	for _, n := range sides {
		f.attachHosts(n)
	}
	// The trunk port on each side is the first port after its hosts.
	trunk := [2]int{f.cfg.Spec.localHosts(0, f.cfg.Hosts), f.cfg.Spec.localHosts(1, f.cfg.Hosts)}
	f.connect(sides[0], sides[1], trunk[1])
	f.connect(sides[1], sides[0], trunk[0])
	for side, n := range sides {
		n.ecmpLo, n.ecmpN = trunk[side], 1
		n.s.SetRoute(func(p *packet.Packet) int {
			d := f.dst(p)
			if d < 0 {
				return -1
			}
			if d%2 == side {
				return f.hosts[d].port
			}
			return trunk[side]
		})
	}
}

// buildParkingLot wires a chain of N switches; flows between distant
// hosts traverse every intermediate bottleneck, the parking-lot fairness
// shape. Host h lives on switch h mod N.
func (f *Fabric) buildParkingLot() {
	n := f.cfg.Spec.N
	for i := 0; i < n; i++ {
		f.attachHosts(f.addSwitch(fmt.Sprintf("hop%d", i)))
	}
	chain := f.switches
	// Port layout per switch: hosts, then right trunk (i < n-1), then
	// left trunk (i > 0); indices are known before the links exist.
	right := func(i int) int { return f.cfg.Spec.localHosts(i, f.cfg.Hosts) }
	left := func(i int) int {
		if i < n-1 {
			return right(i) + 1
		}
		return right(i)
	}
	for i := 0; i < n-1; i++ {
		f.connect(chain[i], chain[i+1], left(i+1))
	}
	for i := 1; i < n; i++ {
		f.connect(chain[i], chain[i-1], right(i-1))
	}
	for i, node := range chain {
		right, left := right(i), left(i)
		if i < n-1 {
			node.ecmpLo, node.ecmpN = right, 1
		}
		node.s.SetRoute(func(p *packet.Packet) int {
			d := f.dst(p)
			if d < 0 {
				return -1
			}
			switch owner := d % n; {
			case owner == i:
				return f.hosts[d].port
			case owner > i:
				return right
			default:
				return left
			}
		})
	}
}

// buildLeafSpine wires L leaves fully meshed to S spines. Cross-rack
// traffic takes one of S equal-cost leaf-spine-leaf paths, chosen by the
// deterministic ECMP hash; host h lives on leaf h mod L.
func (f *Fabric) buildLeafSpine() {
	L, S := f.cfg.Spec.Leaves, f.cfg.Spec.Spines
	for l := 0; l < L; l++ {
		f.addSwitch(fmt.Sprintf("leaf%d", l))
	}
	for s := 0; s < S; s++ {
		f.addSwitch(fmt.Sprintf("spine%d", s))
	}
	leaves, spines := f.switches[:L], f.switches[L:]
	for _, leaf := range leaves {
		f.attachHosts(leaf)
	}
	// Leaf l's uplink toward spine s is port local(l)+s; spine s's port
	// toward leaf l is l.
	local := func(l int) int { return f.cfg.Spec.localHosts(l, f.cfg.Hosts) }
	for _, leaf := range leaves {
		for _, spine := range spines {
			f.connect(leaf, spine, leaf.idx)
		}
	}
	for s, spine := range spines {
		for l, leaf := range leaves {
			f.connect(spine, leaf, local(l)+s)
		}
	}
	for l, leaf := range leaves {
		up := local(l)
		hop := uint64(l)
		leaf.ecmpLo, leaf.ecmpN = up, S
		leaf.s.SetRoute(func(p *packet.Packet) int {
			d := f.dst(p)
			if d < 0 {
				return -1
			}
			if d%L == l {
				return f.hosts[d].port
			}
			return up + ecmpPick(f.cfg.Seed, p.Flow, hop, S)
		})
	}
	for _, spine := range spines {
		spine.s.SetRoute(func(p *packet.Packet) int {
			d := f.dst(p)
			if d < 0 {
				return -1
			}
			return d % L
		})
	}
}

// buildFatTree wires a K-ary fat-tree: K pods of K/2 edge and K/2
// aggregation switches over (K/2)^2 cores. ECMP happens twice on an
// inter-pod path — edge-to-agg and agg-to-core — giving (K/2)^2 equal
// paths. Host h lives on edge h mod (K*K/2); capacity is K^3/4 hosts.
func (f *Fabric) buildFatTree() error {
	k := f.cfg.Spec.K
	half := k / 2
	numEdge := k * half
	capacity := numEdge * half
	if f.cfg.Hosts > capacity {
		return fmt.Errorf("fabric: fat-tree k=%d supports %d hosts, got %d", k, capacity, f.cfg.Hosts)
	}
	for e := 0; e < numEdge; e++ {
		f.addSwitch(fmt.Sprintf("edge%d", e))
	}
	for a := 0; a < k*half; a++ {
		f.addSwitch(fmt.Sprintf("agg%d", a))
	}
	for c := 0; c < half*half; c++ {
		f.addSwitch(fmt.Sprintf("core%d", c))
	}
	edges, aggs, cores := f.switches[:numEdge], f.switches[numEdge:numEdge+k*half], f.switches[numEdge+k*half:]
	for _, edge := range edges {
		f.attachHosts(edge)
	}
	// Edge e's uplink toward in-pod agg j is port local(e)+j; agg (p,j)
	// numbers its edge downlinks 0..half-1, then core uplinks toward core
	// group j; core (j,m) numbers one downlink per pod.
	local := func(e int) int { return f.cfg.Spec.localHosts(e, f.cfg.Hosts) }
	for e, edge := range edges {
		p := e / half
		for j := 0; j < half; j++ {
			f.connect(edge, aggs[p*half+j], e%half)
		}
	}
	for a, agg := range aggs {
		p, j := a/half, a%half
		for i := 0; i < half; i++ {
			f.connect(agg, edges[p*half+i], local(p*half+i)+j)
		}
		for m := 0; m < half; m++ {
			f.connect(agg, cores[j*half+m], p)
		}
	}
	for c, core := range cores {
		j, m := c/half, c%half
		for p := 0; p < k; p++ {
			f.connect(core, aggs[p*half+j], half+m)
		}
	}
	for e, edge := range edges {
		up := local(e)
		hop := uint64(e)
		edge.ecmpLo, edge.ecmpN = up, half
		edge.s.SetRoute(func(p *packet.Packet) int {
			d := f.dst(p)
			if d < 0 {
				return -1
			}
			if d%numEdge == e {
				return f.hosts[d].port
			}
			return up + ecmpPick(f.cfg.Seed, p.Flow, hop, half)
		})
	}
	for a, agg := range aggs {
		pod := a / half
		hop := uint64(numEdge + a)
		agg.ecmpLo, agg.ecmpN = half, half
		agg.s.SetRoute(func(p *packet.Packet) int {
			d := f.dst(p)
			if d < 0 {
				return -1
			}
			ep := d % numEdge
			if ep/half == pod {
				return ep % half
			}
			return half + ecmpPick(f.cfg.Seed, p.Flow, hop, half)
		})
	}
	for _, core := range cores {
		core.s.SetRoute(func(p *packet.Packet) int {
			d := f.dst(p)
			if d < 0 {
				return -1
			}
			return (d % numEdge) / half
		})
	}
	return nil
}
