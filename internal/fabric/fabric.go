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

// sw is one fabric switch plus the bookkeeping the builder needs: the
// downstream peer name per output port, the ECMP uplink group, and the
// links feeding the switch (the PFC upstream set).
type sw struct {
	s         *netem.Switch
	name      string
	idx       int
	route     netem.RouteFunc
	peers     []string
	ecmpPorts []int
	inLinks   []*netem.Link
}

// Fabric is a built tested network.
type Fabric struct {
	cfg      Config
	switches []*sw
	uplinks  []*netem.Link
	hostSw   []int // switch index owning host h's downlink
	hostPort []int // port index of host h's downlink on that switch
	pfcs     []*netem.PFC
	rng      *sim.Rand
}

// Build wires the fabric described by cfg.
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
		cfg:      cfg,
		uplinks:  make([]*netem.Link, cfg.Hosts),
		hostSw:   make([]int, cfg.Hosts),
		hostPort: make([]int, cfg.Hosts),
		rng:      sim.NewRand(seed),
	}
	var err error
	switch cfg.Spec.Kind {
	case "":
		f.buildSingle(eng)
	case KindDumbbell:
		err = f.buildDumbbell(eng)
	case KindLeafSpine:
		err = f.buildLeafSpine(eng)
	case KindFatTree:
		err = f.buildFatTree(eng)
	case KindParkingLot:
		err = f.buildParkingLot(eng)
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

// addSwitch creates a switch whose routing defers to n.route, set by the
// topology builder after the graph is wired.
func (f *Fabric) addSwitch(name string) *sw {
	n := &sw{name: name, idx: len(f.switches)}
	n.s = netem.NewSwitch(name, func(p *packet.Packet) int { return n.route(p) })
	f.switches = append(f.switches, n)
	return n
}

// engineOf resolves the engine a switch runs on: the per-partition mapping
// when one is configured, else the build engine.
func (f *Fabric) engineOf(eng *sim.Engine, n *sw) *sim.Engine {
	if f.cfg.Engines == nil {
		return eng
	}
	return f.cfg.Engines(n.idx)
}

// trunkCfg is the link config for inter-switch links.
func (f *Fabric) trunkCfg() netem.LinkConfig {
	return netem.LinkConfig{
		Rate: f.cfg.PortRate, Delay: f.cfg.LinkDelay,
		QueueBytes: f.cfg.QueueBytes, ECN: f.cfg.ECN, AQM: f.cfg.AQM,
		EnableINT: f.cfg.EnableINT, RNG: f.rng.Split(),
	}
}

// connect adds an output port on a toward b, attributing RX at b to port
// bPort (the port pair facing a), and registers the link in b's PFC
// upstream set. When a and b live on different engines the link is built
// in remote mode: queueing, serialization, and INT stay on a's engine, and
// the drained packet crosses to b through the configured Remote endpoint.
// It returns a's new port index.
func (f *Fabric) connect(eng *sim.Engine, a, b *sw, bPort int) int {
	aEng, bEng := f.engineOf(eng, a), f.engineOf(eng, b)
	in := b.s.PortIn(bPort)
	var i int
	if aEng == bEng {
		i = a.s.AddPort(aEng, f.trunkCfg(), in)
	} else {
		if f.cfg.Remote == nil {
			panic(fmt.Sprintf("fabric: %s and %s split across engines with no Remote factory", a.name, b.name))
		}
		i = a.s.AddPort(aEng, f.trunkCfg(), nil)
		a.s.Port(i).SetRemote(f.cfg.Remote(aEng, bEng, in))
	}
	a.peers = append(a.peers, b.name)
	b.inLinks = append(b.inLinks, a.s.Port(i))
	return i
}

// attachHost gives host h its downlink (an output port on leaf toward the
// host's sink, behind any ExtraHops links) and its uplink (a standalone
// link from the tester into the leaf, attributed to the same port).
func (f *Fabric) attachHost(eng *sim.Engine, leaf *sw, leafIdx, h int) {
	eng = f.engineOf(eng, leaf)
	// Built back to front so packets traverse the chain in order.
	sink := f.cfg.Sinks[h]
	for i := 0; i < f.cfg.ExtraHops; i++ {
		sink = netem.NewLink(eng, f.trunkCfg(), sink)
	}
	cfg := f.trunkCfg()
	cfg.Jitter = f.cfg.Jitter
	port := leaf.s.AddPort(eng, cfg, sink)
	leaf.peers = append(leaf.peers, fmt.Sprintf("host%d", h))
	f.hostSw[h] = leafIdx
	f.hostPort[h] = port

	upQueue := f.cfg.QueueBytes
	if f.cfg.EnablePFC && upQueue < 4<<20 {
		// PFC backpressure parks packets at the host uplinks; give them
		// room so losslessness holds end to end.
		upQueue = 4 << 20
	}
	up := netem.NewLink(eng, netem.LinkConfig{
		Rate: f.cfg.PortRate, Delay: f.cfg.LinkDelay, QueueBytes: upQueue,
		EnableINT: f.cfg.EnableINT,
	}, leaf.s.PortIn(port))
	leaf.inLinks = append(leaf.inLinks, up)
	f.uplinks[h] = up
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
func (f *Fabric) HostUplink(h int) *netem.Link { return f.uplinks[h] }

// HostDownlink returns the fabric's last-hop link toward host h; loss and
// ECN scripts attach here (§7.1).
func (f *Fabric) HostDownlink(h int) *netem.Link {
	return f.switches[f.hostSw[h]].s.Port(f.hostPort[h])
}

// HostLeaf returns the name of the switch host h attaches to.
func (f *Fabric) HostLeaf(h int) string { return f.switches[f.hostSw[h]].name }

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
		if leaf := f.switches[f.hostSw[h]].name; dst != leaf {
			return nil, fmt.Errorf("fabric: host%d attaches to %s, not %s", h, leaf, dst)
		}
		return f.uplinks[h], nil
	}
	if h, isHost := parseHost(dst); isHost {
		if h < 0 || h >= f.cfg.Hosts {
			return nil, fmt.Errorf("fabric: no such host in %q (have %d hosts)", name, f.cfg.Hosts)
		}
		if leaf := f.switches[f.hostSw[h]].name; src != leaf {
			return nil, fmt.Errorf("fabric: host%d attaches to %s, not %s", h, leaf, src)
		}
		return f.HostDownlink(h), nil
	}
	for _, n := range f.switches {
		if n.name != src {
			continue
		}
		for port, peer := range n.peers {
			if peer == dst {
				return n.s.Port(port), nil
			}
		}
		return nil, fmt.Errorf("fabric: %s has no link toward %s (peers: %s)",
			src, dst, strings.Join(n.peers, " "))
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
			out = append(out, n.name+"->"+peer)
		}
	}
	for h := 0; h < f.cfg.Hosts; h++ {
		out = append(out, fmt.Sprintf("host%d->%s", h, f.switches[f.hostSw[h]].name))
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
		out[i] = n.s
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
		for _, port := range n.ecmpPorts {
			c := n.s.PortCounters(port)
			out = append(out, PathCounter{
				Switch: n.name, Port: port, Next: n.peers[port],
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
