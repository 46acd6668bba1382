package netem

import (
	"marlin/internal/packet"
	"marlin/internal/sim"
)

// RouteFunc maps a packet to an output port index, or a negative value to
// drop it. Marlin tests address flows rather than IP prefixes, so routing
// is a pluggable function of the packet (normally its FlowID and Type).
type RouteFunc func(p *packet.Packet) int

// PortCounters are one switch port's packet/byte counters. RX counts
// packets that arrived attributed to the port (via PortIn); TX counts
// packets the routing function forwarded out of the port.
type PortCounters struct {
	RxPackets uint64
	RxBytes   uint64
	TxPackets uint64
	TxBytes   uint64
}

// PortStats is the control-plane view of one switch port: the counters
// plus the state of the egress link behind it (queue depth, drops, marks,
// pause) — the per-hop telemetry a fabric snapshot is made of.
type PortStats struct {
	PortCounters
	// QueueBytes and QueuePkts are the egress queue's instantaneous
	// backlog.
	QueueBytes int
	QueuePkts  int
	// Drops and ECNMarks are the egress queue's cumulative counters.
	Drops    uint64
	ECNMarks uint64
	// InjectedDrops counts hook-injected losses at the egress link
	// (scripted faults and loss bursts).
	InjectedDrops uint64
	// DownDrops counts carrier losses while the egress link was down.
	DownDrops uint64
	// Paused reports whether the egress link is PFC-paused right now.
	Paused bool
	// AQM holds the egress queue's discipline counters, nil when the
	// queue runs plain drop-tail.
	AQM *AQMStats
}

// Stats is a whole-switch telemetry snapshot.
type Stats struct {
	Name      string
	RxPackets uint64
	Unrouted  uint64
	Misroutes uint64
	Ports     []PortStats
}

// Switch is an output-queued switch in the tested network. Each output
// port is a Link (queue + serialization + propagation) toward a Node. out
// and ports are sized once to the port count a switch is built for; AddLink
// past it grows them.
type Switch struct {
	name      string
	route     RouteFunc
	out       []*Link
	ports     []port
	lost      uint64
	rxPkts    uint64
	misroutes uint64
}

// port is one port's counters, and the Node PortIn returns for it, which
// attributes arrivals to the port before the switch routes them.
type port struct {
	s *Switch
	i int
	PortCounters
}

// Receive counts the packet on its ingress port and routes it. It counts
// in the switch's live array, so a node taken before AddLink grew the
// array still counts where PortCounters reads.
func (pt *port) Receive(p *packet.Packet) {
	c := &pt.s.ports[pt.i]
	c.RxPackets++
	c.RxBytes += uint64(p.Size)
	pt.s.Receive(p)
}

// NewSwitch creates a switch with the given routing function and no ports;
// attach ports with AddPort.
func NewSwitch(name string, route RouteFunc) *Switch {
	s := new(Switch)
	s.Init(name, route, 0)
	return s
}

// Init sets up a zero Switch in place, with room for ports output ports:
// its port arrays are allocated once, and AddLink fills them in order.
func (s *Switch) Init(name string, route RouteFunc, ports int) {
	*s = Switch{
		name:  name,
		route: route,
		out:   make([]*Link, 0, ports),
		ports: make([]port, ports),
	}
	for i := range s.ports {
		s.ports[i] = port{s: s, i: i}
	}
}

// SetRoute replaces the routing function, for a network whose routes are
// known only once its ports are wired.
func (s *Switch) SetRoute(route RouteFunc) { s.route = route }

// Name returns the switch's name.
func (s *Switch) Name() string { return s.name }

// AddPort appends an output port connected by a new Link to dst and
// returns the port index.
func (s *Switch) AddPort(eng *sim.Engine, cfg LinkConfig, dst Node) int {
	return s.AddLink(NewLink(eng, cfg, dst))
}

// AddLink appends an output port served by l, a link the caller built, and
// returns the port index.
func (s *Switch) AddLink(l *Link) int {
	i := len(s.out)
	s.out = append(s.out, l)
	if i == len(s.ports) {
		s.ports = append(s.ports, port{s: s, i: i})
	}
	return i
}

// Port returns the link behind output port i.
func (s *Switch) Port(i int) *Link { return s.out[i] }

// Ports returns the number of output ports.
func (s *Switch) Ports() int { return len(s.out) }

// PortIn returns a Node that attributes arriving packets to ingress port i
// before routing them; wire upstream links to it (instead of the switch
// itself) to get per-port RX accounting. Port i must exist or be within the
// count the switch was built for.
func (s *Switch) PortIn(i int) Node { return &s.ports[i] }

// Receive implements Node: route and forward. A route verdict beyond the
// last port is counted as a misroute and the packet is discarded — in a
// programmatically routed fabric a table bug must surface as a counter in
// the loss report, not a crash of the whole tester.
func (s *Switch) Receive(p *packet.Packet) {
	s.rxPkts++
	i := s.route(p)
	if i < 0 {
		s.lost++
		p.Release()
		return
	}
	if i >= len(s.out) {
		s.misroutes++
		p.Release()
		return
	}
	c := &s.ports[i]
	c.TxPackets++
	c.TxBytes += uint64(p.Size)
	s.out[i].Send(p)
}

// Unrouted reports packets the routing function dropped.
func (s *Switch) Unrouted() uint64 { return s.lost }

// Misroutes reports packets routed to a port the switch does not have.
func (s *Switch) Misroutes() uint64 { return s.misroutes }

// RxPackets reports total packets the switch received.
func (s *Switch) RxPackets() uint64 { return s.rxPkts }

// PortCounters returns port i's packet/byte counters.
func (s *Switch) PortCounters(i int) PortCounters { return s.ports[i].PortCounters }

// Stats snapshots the whole switch: aggregate counters plus per-port
// counters and egress-queue state.
func (s *Switch) Stats() Stats {
	st := Stats{
		Name:      s.name,
		RxPackets: s.rxPkts,
		Unrouted:  s.lost,
		Misroutes: s.misroutes,
		Ports:     make([]PortStats, 0, len(s.out)),
	}
	for i, l := range s.out {
		q := l.Queue()
		qs := q.Stats()
		ls := l.Stats()
		st.Ports = append(st.Ports, PortStats{
			PortCounters:  s.ports[i].PortCounters,
			QueueBytes:    q.Bytes(),
			QueuePkts:     q.Len(),
			Drops:         qs.Drops,
			ECNMarks:      qs.ECNMarks,
			InjectedDrops: ls.InjectedDrops,
			DownDrops:     ls.DownDrops,
			Paused:        l.Paused(),
			AQM:           q.AQMStats(),
		})
	}
	return st
}

// RouteAllTo returns a RouteFunc sending everything to one port, creating
// the fan-in bottleneck used by the congestion and incast experiments.
func RouteAllTo(port int) RouteFunc {
	return func(*packet.Packet) int { return port }
}

// RouteByFlowTable returns a RouteFunc that looks flows up in a table and
// drops unknown flows.
func RouteByFlowTable(table map[packet.FlowID]int) RouteFunc {
	return func(p *packet.Packet) int {
		if port, ok := table[p.Flow]; ok {
			return port
		}
		return -1
	}
}
