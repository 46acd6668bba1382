// Package fabric composes netem switches and links into the tested
// network. The zero Spec is the §7.1 arrangement — one programmable switch
// between the tester's sender and receiver ports — and the named shapes are
// the dumbbell, parking-lot, leaf-spine, and fat-tree networks
// congestion-control papers evaluate on. The tester's data ports attach as
// hosts — port i's DATA enters the network at host i's leaf and leaves
// toward the tester's receiver logic at the destination host's downlink —
// so core.Tester builds every shape through the same Build call.
//
// Routing is destination-based: a DstFunc resolves each packet to its
// destination host, and every switch forwards toward that host's leaf.
// Where several equal-cost next hops exist (leaf-to-spine, edge-to-agg,
// agg-to-core), the choice is deterministic ECMP: a splitmix64-style hash
// of (seed, flow, hop), so every packet of a flow takes one path and the
// whole fabric replays bit-for-bit from the configuration seed. Per-path
// counters expose the hash imbalance that makes ECMP testing interesting.
package fabric

import (
	"fmt"
	"strconv"
	"strings"

	"marlin/internal/aqm"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

// DstFunc resolves a packet to its destination host port, or a negative
// value if the flow is unknown (the packet is then counted unrouted).
type DstFunc func(p *packet.Packet) int

// Config assembles a fabric.
type Config struct {
	// Spec selects the shape; the zero value is the single switch.
	Spec Spec
	// Hosts is how many tester data ports attach (host h lives on leaf
	// h mod leaves, in every shape).
	Hosts int
	// PortRate is the line rate of every fabric link (default 100 Gbps).
	PortRate sim.Rate
	// LinkDelay is the one-way propagation delay per link (default 2 us).
	LinkDelay sim.Duration
	// QueueBytes bounds every switch egress queue (0 = netem default).
	QueueBytes int
	// ECN configures step marking at every switch egress queue.
	ECN netem.ECNConfig
	// AQM deploys an active queue management discipline on every switch
	// egress queue, superseding ECN (zero = drop-tail + ECN).
	AQM aqm.Spec
	// EnableINT stamps per-hop telemetry on DATA at every fabric link.
	EnableINT bool
	// Jitter adds uniform [0, Jitter] propagation jitter on the host
	// downlinks.
	Jitter sim.Duration
	// ExtraHops chains that many store-and-forward links, each of
	// LinkDelay and marking like a switch egress, behind every host
	// downlink: leaf/spine path depth without the switches.
	ExtraHops int
	// EnablePFC makes the fabric lossless hop by hop: every egress queue
	// pauses all links feeding its switch at the XOFF watermark, so
	// backpressure propagates upstream switch by switch.
	EnablePFC bool
	// PFCXOFFBytes overrides the pause watermark (0 = half the queue).
	PFCXOFFBytes int
	// Seed drives the ECMP hash and the per-link marking streams.
	Seed uint64
	// Dst resolves packets to destination hosts (required).
	Dst DstFunc
	// Sinks receive delivered packets: Sinks[h] is host h's receiver
	// (required, len >= Hosts).
	Sinks []netem.Node
	// Engines maps a switch build index to the engine it runs on; nil
	// means every switch runs on the engine passed to Build. Sharded
	// builds provide it from a PartitionPlan. Host endpoints (uplink,
	// downlink, sink) always live on their leaf-tier switch's engine, so
	// Sinks[h] must be driven by the engine of the switch owning host h.
	Engines func(swIdx int) *sim.Engine
	// Remote builds the cross-partition endpoint for a trunk whose two
	// ends map to different engines: the returned Remote carries drained
	// packets from srcEng's goroutine to dst, which runs on dstEng.
	// Required whenever Engines splits connected switches.
	Remote func(srcEng, dstEng *sim.Engine, dst netem.Node) netem.Remote
}

// sw is one fabric switch plus the bookkeeping the builder needs: the far
// end of each output port (peers: a switch index, or -1-h for host h), the
// ECMP uplink group (ports ecmpLo up to ecmpLo+ecmpN), the links feeding the
// switch (the PFC upstream set), and the link slab its engine builds from.
type sw struct {
	s       netem.Switch
	name    string
	idx     int
	slab    int
	peers   []int
	ecmpLo  int
	ecmpN   int
	inLinks []*netem.Link
}

// host is where host h attaches: its leaf's index and the leaf's port
// toward it, and the host's uplink into that port.
type host struct {
	sw, port int
	up       *netem.Link
}

// linkSlab holds every link built on one engine, in build order. It is
// sized from the shape before anything is wired, so it never grows.
type linkSlab struct {
	eng   *sim.Engine
	links []netem.Link
}

// Fabric is a built tested network.
type Fabric struct {
	cfg      Config
	switches []*sw
	hosts    []host
	slabs    []linkSlab
	pfcs     []*netem.PFC
	rng      sim.Rand
	nsw      int // switches named so far
}

// Build wires the fabric described by cfg. It counts the shape's switches,
// ports and links first (Spec.SwitchPorts), then places every switch in one
// slab and every link in one slab per engine, so the network costs a
// handful of allocations plus a few a switch, none a link.
func Build(eng *sim.Engine, cfg Config) (*Fabric, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Hosts < 1 {
		return nil, fmt.Errorf("fabric: need at least one host, got %d", cfg.Hosts)
	}
	if cfg.Dst == nil {
		return nil, fmt.Errorf("fabric: nil DstFunc")
	}
	if len(cfg.Sinks) < cfg.Hosts {
		return nil, fmt.Errorf("fabric: %d sinks for %d hosts", len(cfg.Sinks), cfg.Hosts)
	}
	if cfg.PortRate == 0 {
		cfg.PortRate = 100 * sim.Gbps
	}
	if cfg.LinkDelay == 0 {
		cfg.LinkDelay = sim.Micros(2)
	}
	// The named shapes decouple their marking/jitter streams from the run
	// seed with a fixed mix constant; the single switch draws from the run
	// seed itself, the stream its marking and jitter goldens hold.
	seed := cfg.Seed
	if !cfg.Spec.IsZero() {
		seed ^= 0xfab21c0de
	}
	f := &Fabric{
		cfg:   cfg,
		hosts: make([]host, cfg.Hosts),
		rng:   sim.MakeRand(seed),
	}
	f.layout(eng)
	var err error
	switch cfg.Spec.Kind {
	case "":
		f.buildSingle()
	case KindDumbbell:
		f.buildDumbbell()
	case KindLeafSpine:
		f.buildLeafSpine()
	case KindFatTree:
		err = f.buildFatTree()
	case KindParkingLot:
		f.buildParkingLot()
	default:
		err = fmt.Errorf("fabric: unknown topology %q", cfg.Spec.Kind)
	}
	if err != nil {
		return nil, err
	}
	if cfg.EnablePFC {
		if cfg.Engines != nil {
			// A pause frame from one partition's queue acting on another
			// partition's link would be a cross-shard write mid-round.
			return nil, fmt.Errorf("fabric: PFC is not supported on a partitioned build")
		}
		if err := f.wirePFC(eng); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// layout sizes the fabric from its shape before any link exists: one slab
// of switches, each built for its port count, one array of peers and one of
// PFC upstream links shared out among them, and one link slab per engine
// (a switch's output ports, and its hosts' ExtraHops and uplinks, live on
// its engine), so islands run on links of their own.
func (f *Fabric) layout(eng *sim.Engine) {
	spec, hosts := f.cfg.Spec, f.cfg.Hosts
	sws := make([]sw, spec.Switches())
	f.switches = make([]*sw, len(sws))
	ports := 0
	for i := range sws {
		ports += spec.SwitchPorts(i, hosts)
	}
	// Every port is one end of a bidirectional pair, or a host's downlink
	// paired with its uplink, so a switch is fed by as many links as it
	// has ports.
	peers := make([]int, ports)
	in := make([]*netem.Link, ports)
	need := make([]int, 0, 1)
	for i := range sws {
		np := spec.SwitchPorts(i, hosts)
		n := &sws[i]
		n.idx = i
		n.peers, peers = peers[:0:np], peers[np:]
		n.inLinks, in = in[:0:np], in[np:]
		e := eng
		if f.cfg.Engines != nil {
			e = f.cfg.Engines(i)
		}
		n.slab = len(f.slabs)
		for k, s := range f.slabs {
			if s.eng == e {
				n.slab = k
				break
			}
		}
		if n.slab == len(f.slabs) {
			f.slabs = append(f.slabs, linkSlab{eng: e})
			need = append(need, 0)
		}
		need[n.slab] += np + spec.localHosts(i, hosts)*(f.cfg.ExtraHops+1)
		f.switches[i] = n
	}
	for k := range f.slabs {
		f.slabs[k].links = make([]netem.Link, 0, need[k])
	}
}

// ecmpPick deterministically selects among n equal-cost next hops. It is a
// pure splitmix64-style finalizer over (seed, flow, hop): no generator
// state, so the choice is independent of packet arrival order, and every
// packet of a flow at a given switch takes the same path — the per-flow
// consistency real ECMP hashing provides, reproducible from the seed.
func ecmpPick(seed uint64, flow packet.FlowID, hop uint64, n int) int {
	z := seed + 0x9e3779b97f4a7c15*(hop+1) + (uint64(flow)+1)*0x2545f4914f6cdd1d
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// addSwitch names the next switch in build order and sets it up for its
// port count (its peers' capacity); the topology builder gives it its route
// once the graph is wired.
func (f *Fabric) addSwitch(name string) *sw {
	n := f.switches[f.nsw]
	f.nsw++
	n.name = name
	n.s.Init(name, nil, cap(n.peers))
	return n
}

// link places the next link of n's engine slab, delivering to dst.
func (f *Fabric) link(n *sw, cfg netem.LinkConfig, dst netem.Node) *netem.Link {
	s := &f.slabs[n.slab]
	s.links = s.links[:len(s.links)+1]
	l := &s.links[len(s.links)-1]
	l.Init(s.eng, cfg, dst)
	return l
}

// trunk places an inter-switch-class link on n's engine: a trunk, a host
// downlink or an ExtraHops link. Each starts its marking and jitter stream
// from the next draw of the fabric's seed stream.
func (f *Fabric) trunk(n *sw, jitter sim.Duration, dst netem.Node) *netem.Link {
	rng := sim.MakeRand(f.rng.Uint64())
	return f.link(n, netem.LinkConfig{
		Rate: f.cfg.PortRate, Delay: f.cfg.LinkDelay,
		QueueBytes: f.cfg.QueueBytes, ECN: f.cfg.ECN, AQM: f.cfg.AQM,
		EnableINT: f.cfg.EnableINT, Jitter: jitter, RNG: &rng,
	}, dst)
}

// connect adds an output port on a toward b, attributing RX at b to port
// bPort (the port pair facing a), and registers the link in b's PFC
// upstream set. When a and b live on different engines the link is built
// in remote mode: queueing, serialization, and INT stay on a's engine, and
// the drained packet crosses to b through the configured Remote endpoint.
func (f *Fabric) connect(a, b *sw, bPort int) {
	in := b.s.PortIn(bPort)
	var l *netem.Link
	if aEng, bEng := f.slabs[a.slab].eng, f.slabs[b.slab].eng; aEng == bEng {
		l = f.trunk(a, 0, in)
	} else {
		if f.cfg.Remote == nil {
			panic(fmt.Sprintf("fabric: %s and %s split across engines with no Remote factory", a.name, b.name))
		}
		l = f.trunk(a, 0, nil)
		l.SetRemote(f.cfg.Remote(aEng, bEng, in))
	}
	a.s.AddLink(l)
	a.peers = append(a.peers, b.idx)
	b.inLinks = append(b.inLinks, l)
}

// attachHost gives host h its downlink (an output port on leaf toward the
// host's sink, behind any ExtraHops links) and its uplink (a standalone
// link from the tester into the leaf, attributed to the same port).
func (f *Fabric) attachHost(leaf *sw, h int) {
	// Built back to front so packets traverse the chain in order.
	sink := f.cfg.Sinks[h]
	for i := 0; i < f.cfg.ExtraHops; i++ {
		sink = f.trunk(leaf, 0, sink)
	}
	port := leaf.s.AddLink(f.trunk(leaf, f.cfg.Jitter, sink))
	leaf.peers = append(leaf.peers, -1-h)

	upQueue := f.cfg.QueueBytes
	if f.cfg.EnablePFC && upQueue < 4<<20 {
		// PFC backpressure parks packets at the host uplinks; give them
		// room so losslessness holds end to end.
		upQueue = 4 << 20
	}
	up := f.link(leaf, netem.LinkConfig{
		Rate: f.cfg.PortRate, Delay: f.cfg.LinkDelay, QueueBytes: upQueue,
		EnableINT: f.cfg.EnableINT,
	}, leaf.s.PortIn(port))
	leaf.inLinks = append(leaf.inLinks, up)
	f.hosts[h] = host{sw: leaf.idx, port: port, up: up}
}

// attachHosts attaches every host that lives on leaf-tier switch leaf, in
// ascending order.
func (f *Fabric) attachHosts(leaf *sw) {
	for h := leaf.idx; h < f.cfg.Hosts; h += f.cfg.Spec.leafTier() {
		f.attachHost(leaf, h)
	}
}

// dst resolves a packet's destination host, clamping unknown and
// out-of-range hosts to "unrouted".
func (f *Fabric) dst(p *packet.Packet) int {
	d := f.cfg.Dst(p)
	if d < 0 || d >= f.cfg.Hosts {
		return -1
	}
	return d
}

// wirePFC makes every egress queue pause all links feeding its switch, so
// congestion anywhere propagates hop by hop back to the host uplinks.
func (f *Fabric) wirePFC(eng *sim.Engine) error {
	for _, n := range f.switches {
		if len(n.inLinks) == 0 {
			continue
		}
		for i := 0; i < n.s.Ports(); i++ {
			q := n.s.Port(i).Queue()
			xoff := f.cfg.PFCXOFFBytes
			if xoff == 0 {
				xoff = q.Capacity() / 2
			}
			pfc, err := netem.NewPFC(eng, q, n.inLinks, netem.PFCConfig{
				XOFF: xoff, XON: xoff / 2, Delay: f.cfg.LinkDelay,
			})
			if err != nil {
				return fmt.Errorf("fabric: %s port %d: %w", n.name, i, err)
			}
			f.pfcs = append(f.pfcs, pfc)
		}
	}
	return nil
}

// Spec returns the shape the fabric was built from.
func (f *Fabric) Spec() Spec { return f.cfg.Spec }

// HostUplink returns the link carrying host h's traffic into the fabric;
// the tester connects its data port h to it.
func (f *Fabric) HostUplink(h int) *netem.Link { return f.hosts[h].up }

// HostDownlink returns the fabric's last-hop link toward host h; loss and
// ECN scripts attach here (§7.1).
func (f *Fabric) HostDownlink(h int) *netem.Link {
	return f.switches[f.hosts[h].sw].s.Port(f.hosts[h].port)
}

// HostLeaf returns the name of the switch host h attaches to.
func (f *Fabric) HostLeaf(h int) string { return f.switches[f.hosts[h].sw].name }

// peerName names the far end of a port: a switch, or hostN.
func (f *Fabric) peerName(peer int) string {
	if peer < 0 {
		return "host" + strconv.Itoa(-1-peer)
	}
	return f.switches[peer].name
}

// ResolveLink maps a directed "src->dst" endpoint pair onto the link that
// carries traffic from src to dst. Endpoints are switch names as the
// topology builders assign them (leaf0, spine1, edge2, agg0, core1, hop0)
// or hosts (host3). "hostN->leafX" is host N's uplink into the fabric;
// "leafX->hostN" is its downlink. Fault plans address links by these names.
func (f *Fabric) ResolveLink(name string) (*netem.Link, error) {
	src, dst, ok := strings.Cut(name, "->")
	if !ok || src == "" || dst == "" {
		return nil, fmt.Errorf("fabric: link name %q is not of the form src->dst", name)
	}
	if h, isHost := parseHost(src); isHost {
		if h < 0 || h >= f.cfg.Hosts {
			return nil, fmt.Errorf("fabric: no such host in %q (have %d hosts)", name, f.cfg.Hosts)
		}
		if leaf := f.HostLeaf(h); dst != leaf {
			return nil, fmt.Errorf("fabric: host%d attaches to %s, not %s", h, leaf, dst)
		}
		return f.hosts[h].up, nil
	}
	if h, isHost := parseHost(dst); isHost {
		if h < 0 || h >= f.cfg.Hosts {
			return nil, fmt.Errorf("fabric: no such host in %q (have %d hosts)", name, f.cfg.Hosts)
		}
		if leaf := f.HostLeaf(h); src != leaf {
			return nil, fmt.Errorf("fabric: host%d attaches to %s, not %s", h, leaf, src)
		}
		return f.HostDownlink(h), nil
	}
	for _, n := range f.switches {
		if n.name != src {
			continue
		}
		// A host destination returned above, so only a switch can match.
		names := make([]string, len(n.peers))
		for port, peer := range n.peers {
			if peer >= 0 && f.switches[peer].name == dst {
				return n.s.Port(port), nil
			}
			names[port] = f.peerName(peer)
		}
		return nil, fmt.Errorf("fabric: %s has no link toward %s (peers: %s)",
			src, dst, strings.Join(names, " "))
	}
	return nil, fmt.Errorf("fabric: no switch named %q", src)
}

// LinkNames lists every addressable link name in deterministic build
// order: all switch egress links first (including host downlinks), then
// the host uplinks.
func (f *Fabric) LinkNames() []string {
	var out []string
	for _, n := range f.switches {
		for _, peer := range n.peers {
			out = append(out, n.name+"->"+f.peerName(peer))
		}
	}
	for h := 0; h < f.cfg.Hosts; h++ {
		out = append(out, fmt.Sprintf("host%d->%s", h, f.HostLeaf(h)))
	}
	return out
}

// parseHost recognises "hostN" endpoint names.
func parseHost(s string) (int, bool) {
	num, ok := strings.CutPrefix(s, "host")
	if !ok || num == "" {
		return 0, false
	}
	h, err := strconv.Atoi(num)
	if err != nil {
		return 0, false
	}
	return h, true
}

// Switches lists the fabric's switches in build order.
func (f *Fabric) Switches() []*netem.Switch {
	out := make([]*netem.Switch, len(f.switches))
	for i, n := range f.switches {
		out[i] = &n.s
	}
	return out
}

// Stats snapshots per-switch, per-port telemetry across the fabric.
func (f *Fabric) Stats() []netem.Stats {
	out := make([]netem.Stats, len(f.switches))
	for i, n := range f.switches {
		out[i] = n.s.Stats()
	}
	return out
}

// Misroutes sums table-bug discards across all switches.
func (f *Fabric) Misroutes() uint64 {
	var n uint64
	for _, s := range f.switches {
		n += s.s.Misroutes()
	}
	return n
}

// PFCPauses reports pause episodes across the fabric's controllers.
func (f *Fabric) PFCPauses() uint64 {
	var n uint64
	for _, p := range f.pfcs {
		n += p.Pauses()
	}
	return n
}

// PathCounter is the cumulative traffic one member of an ECMP group
// carried: the switch that made the choice, the chosen next hop, and the
// egress counters of the port toward it.
type PathCounter struct {
	Switch    string
	Port      int
	Next      string
	TxPackets uint64
	TxBytes   uint64
}

// ECMPPaths lists every ECMP group member with its traffic counters, in
// deterministic build order; comparing members of a group measures the
// hash imbalance.
func (f *Fabric) ECMPPaths() []PathCounter {
	var out []PathCounter
	for _, n := range f.switches {
		for port := n.ecmpLo; port < n.ecmpLo+n.ecmpN; port++ {
			c := n.s.PortCounters(port)
			out = append(out, PathCounter{
				Switch: n.name, Port: port, Next: f.peerName(n.peers[port]),
				TxPackets: c.TxPackets, TxBytes: c.TxBytes,
			})
		}
	}
	return out
}

// Imbalance summarises ECMP hash skew over path counters: the maximum
// next-hop load divided by the mean (1 = perfectly balanced, 0 if no
// traffic). Loads aggregate per next-hop name, so for a leaf-spine it is
// the skew across spines.
func Imbalance(paths []PathCounter) float64 {
	totals := make(map[string]uint64)
	var order []string
	for _, p := range paths {
		if _, ok := totals[p.Next]; !ok {
			order = append(order, p.Next)
		}
		totals[p.Next] += p.TxPackets
	}
	if len(order) == 0 {
		return 0
	}
	var sum, max uint64
	for _, next := range order {
		t := totals[next]
		sum += t
		if t > max {
			max = t
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(order))
	return float64(max) / mean
}
