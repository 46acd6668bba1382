package fabric

import (
	"fmt"

	"marlin/internal/packet"
	"marlin/internal/sim"
)

// The builders below share two conventions. Ports: every switch numbers
// its local host downlinks first, then its trunk/uplink ports, and a
// bidirectional port pair shares one index (the link arriving from a
// neighbor is attributed to the port facing that neighbor). Placement:
// host h attaches to leaf-tier switch h mod <leaf count>, so any tester
// port mix spreads across racks deterministically.

// buildSingle wires the zero shape, the §7.1 tested network: one switch
// with host h's downlink on port h, fed by every host uplink.
func (f *Fabric) buildSingle(eng *sim.Engine) {
	n := f.addSwitch("tested-network")
	for h := 0; h < f.cfg.Hosts; h++ {
		f.attachHost(eng, n, 0, h)
	}
	n.route = f.dst
}

// buildDumbbell wires two switches over a single trunk — the classic
// shared-bottleneck shape. Even hosts live left, odd hosts right; any
// even-to-odd flow crosses the trunk.
func (f *Fabric) buildDumbbell(eng *sim.Engine) error {
	sides := []*sw{f.addSwitch("left"), f.addSwitch("right")}
	nLocal := [2]int{}
	for side, n := range sides {
		for h := 0; h < f.cfg.Hosts; h++ {
			if h%2 == side {
				f.attachHost(eng, n, side, h)
				nLocal[side]++
			}
		}
	}
	// The trunk port on each side is the first port after its hosts.
	trunk := [2]int{nLocal[0], nLocal[1]}
	f.connect(eng, sides[0], sides[1], trunk[1])
	f.connect(eng, sides[1], sides[0], trunk[0])
	for side, n := range sides {
		side := side
		n.ecmpPorts = []int{trunk[side]}
		n.route = func(p *packet.Packet) int {
			d := f.dst(p)
			if d < 0 {
				return -1
			}
			if d%2 == side {
				return f.hostPort[d]
			}
			return trunk[side]
		}
	}
	return nil
}

// buildParkingLot wires a chain of N switches; flows between distant
// hosts traverse every intermediate bottleneck, the parking-lot fairness
// shape. Host h lives on switch h mod N.
func (f *Fabric) buildParkingLot(eng *sim.Engine) error {
	n := f.cfg.Spec.N
	chain := make([]*sw, n)
	nLocal := make([]int, n)
	for i := range chain {
		chain[i] = f.addSwitch(fmt.Sprintf("hop%d", i))
		for h := 0; h < f.cfg.Hosts; h++ {
			if h%n == i {
				f.attachHost(eng, chain[i], i, h)
				nLocal[i]++
			}
		}
	}
	// Port layout per switch: hosts, then right trunk (i < n-1), then
	// left trunk (i > 0); indices are known before the links exist.
	right := make([]int, n)
	left := make([]int, n)
	for i := range chain {
		right[i] = nLocal[i]
		left[i] = nLocal[i]
		if i < n-1 {
			left[i]++
		}
	}
	for i := 0; i < n-1; i++ {
		f.connect(eng, chain[i], chain[i+1], left[i+1])
	}
	for i := 1; i < n; i++ {
		f.connect(eng, chain[i], chain[i-1], right[i-1])
	}
	for i, node := range chain {
		i, node := i, node
		if i < n-1 {
			node.ecmpPorts = append(node.ecmpPorts, right[i])
		}
		node.route = func(p *packet.Packet) int {
			d := f.dst(p)
			if d < 0 {
				return -1
			}
			switch owner := d % n; {
			case owner == i:
				return f.hostPort[d]
			case owner > i:
				return right[i]
			default:
				return left[i]
			}
		}
	}
	return nil
}

// buildLeafSpine wires L leaves fully meshed to S spines. Cross-rack
// traffic takes one of S equal-cost leaf-spine-leaf paths, chosen by the
// deterministic ECMP hash; host h lives on leaf h mod L.
func (f *Fabric) buildLeafSpine(eng *sim.Engine) error {
	L, S := f.cfg.Spec.Leaves, f.cfg.Spec.Spines
	leaves := make([]*sw, L)
	spines := make([]*sw, S)
	nLocal := make([]int, L)
	for l := range leaves {
		leaves[l] = f.addSwitch(fmt.Sprintf("leaf%d", l))
	}
	for s := range spines {
		spines[s] = f.addSwitch(fmt.Sprintf("spine%d", s))
	}
	for l := range leaves {
		for h := 0; h < f.cfg.Hosts; h++ {
			if h%L == l {
				f.attachHost(eng, leaves[l], l, h)
				nLocal[l]++
			}
		}
	}
	// Leaf l's uplink toward spine s is port nLocal[l]+s; spine s's port
	// toward leaf l is l.
	for l := range leaves {
		for s := range spines {
			f.connect(eng, leaves[l], spines[s], l)
		}
	}
	for s := range spines {
		for l := range leaves {
			f.connect(eng, spines[s], leaves[l], nLocal[l]+s)
		}
	}
	for l, leaf := range leaves {
		l, leaf := l, leaf
		up := nLocal[l]
		hop := uint64(l)
		for s := 0; s < S; s++ {
			leaf.ecmpPorts = append(leaf.ecmpPorts, up+s)
		}
		leaf.route = func(p *packet.Packet) int {
			d := f.dst(p)
			if d < 0 {
				return -1
			}
			if d%L == l {
				return f.hostPort[d]
			}
			return up + ecmpPick(f.cfg.Seed, p.Flow, hop, S)
		}
	}
	for _, spine := range spines {
		spine.route = func(p *packet.Packet) int {
			d := f.dst(p)
			if d < 0 {
				return -1
			}
			return d % L
		}
	}
	return nil
}

// buildFatTree wires a K-ary fat-tree: K pods of K/2 edge and K/2
// aggregation switches over (K/2)^2 cores. ECMP happens twice on an
// inter-pod path — edge-to-agg and agg-to-core — giving (K/2)^2 equal
// paths. Host h lives on edge h mod (K*K/2); capacity is K^3/4 hosts.
func (f *Fabric) buildFatTree(eng *sim.Engine) error {
	k := f.cfg.Spec.K
	half := k / 2
	numEdge := k * half
	capacity := numEdge * half
	if f.cfg.Hosts > capacity {
		return fmt.Errorf("fabric: fat-tree k=%d supports %d hosts, got %d", k, capacity, f.cfg.Hosts)
	}
	edges := make([]*sw, numEdge)
	aggs := make([]*sw, k*half)
	cores := make([]*sw, half*half)
	nLocal := make([]int, numEdge)
	for e := range edges {
		edges[e] = f.addSwitch(fmt.Sprintf("edge%d", e))
	}
	for a := range aggs {
		aggs[a] = f.addSwitch(fmt.Sprintf("agg%d", a))
	}
	for c := range cores {
		cores[c] = f.addSwitch(fmt.Sprintf("core%d", c))
	}
	for e := range edges {
		for h := 0; h < f.cfg.Hosts; h++ {
			if h%numEdge == e {
				f.attachHost(eng, edges[e], e, h)
				nLocal[e]++
			}
		}
	}
	// Edge e's uplink toward in-pod agg j is port nLocal[e]+j; agg (p,j)
	// numbers its edge downlinks 0..half-1, then core uplinks toward core
	// group j; core (j,m) numbers one downlink per pod.
	for e := range edges {
		p := e / half
		for j := 0; j < half; j++ {
			f.connect(eng, edges[e], aggs[p*half+j], e%half)
		}
	}
	for a := range aggs {
		p, j := a/half, a%half
		for i := 0; i < half; i++ {
			f.connect(eng, aggs[a], edges[p*half+i], nLocal[p*half+i]+j)
		}
		for m := 0; m < half; m++ {
			f.connect(eng, aggs[a], cores[j*half+m], p)
		}
	}
	for c := range cores {
		j, m := c/half, c%half
		for p := 0; p < k; p++ {
			f.connect(eng, cores[c], aggs[p*half+j], half+m)
		}
	}
	for e, edge := range edges {
		e, edge := e, edge
		up := nLocal[e]
		hop := uint64(e)
		for j := 0; j < half; j++ {
			edge.ecmpPorts = append(edge.ecmpPorts, up+j)
		}
		edge.route = func(p *packet.Packet) int {
			d := f.dst(p)
			if d < 0 {
				return -1
			}
			if d%numEdge == e {
				return f.hostPort[d]
			}
			return up + ecmpPick(f.cfg.Seed, p.Flow, hop, half)
		}
	}
	for a, agg := range aggs {
		pod := a / half
		hop := uint64(numEdge + a)
		agg := agg
		for m := 0; m < half; m++ {
			agg.ecmpPorts = append(agg.ecmpPorts, half+m)
		}
		agg.route = func(p *packet.Packet) int {
			d := f.dst(p)
			if d < 0 {
				return -1
			}
			ep := d % numEdge
			if ep/half == pod {
				return ep % half
			}
			return half + ecmpPick(f.cfg.Seed, p.Flow, hop, half)
		}
	}
	for _, core := range cores {
		core.route = func(p *packet.Packet) int {
			d := f.dst(p)
			if d < 0 {
				return -1
			}
			return (d % numEdge) / half
		}
	}
	return nil
}
