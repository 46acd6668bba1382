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
// port is a Link (queue + serialization + propagation) toward a Node.
type Switch struct {
	name      string
	route     RouteFunc
	out       []*Link
	ports     []PortCounters
	lost      uint64
	rxPkts    uint64
	misroutes uint64
}

// NewSwitch creates a switch with the given routing function and no ports;
// attach ports with AddPort.
func NewSwitch(name string, route RouteFunc) *Switch {
	return &Switch{name: name, route: route}
}

// Name returns the switch's name.
func (s *Switch) Name() string { return s.name }

// AddPort appends an output port connected by a new Link to dst and
// returns the port index.
func (s *Switch) AddPort(eng *sim.Engine, cfg LinkConfig, dst Node) int {
	s.out = append(s.out, NewLink(eng, cfg, dst))
	s.ensurePort(len(s.out) - 1)
	return len(s.out) - 1
}

func (s *Switch) ensurePort(i int) {
	for len(s.ports) <= i {
		s.ports = append(s.ports, PortCounters{})
	}
}

// Port returns the link behind output port i.
func (s *Switch) Port(i int) *Link { return s.out[i] }

// Ports returns the number of output ports.
func (s *Switch) Ports() int { return len(s.out) }

// PortIn returns a Node that attributes arriving packets to ingress port i
// before routing them; wire upstream links to it (instead of the switch
// itself) to get per-port RX accounting.
func (s *Switch) PortIn(i int) Node {
	s.ensurePort(i)
	return NodeFunc(func(p *packet.Packet) {
		s.ports[i].RxPackets++
		s.ports[i].RxBytes += uint64(p.Size)
		s.Receive(p)
	})
}

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
	s.ports[i].TxPackets++
	s.ports[i].TxBytes += uint64(p.Size)
	s.out[i].Send(p)
}

// Unrouted reports packets the routing function dropped.
func (s *Switch) Unrouted() uint64 { return s.lost }

// Misroutes reports packets routed to a port the switch does not have.
func (s *Switch) Misroutes() uint64 { return s.misroutes }

// RxPackets reports total packets the switch received.
func (s *Switch) RxPackets() uint64 { return s.rxPkts }

// PortCounters returns port i's packet/byte counters.
func (s *Switch) PortCounters(i int) PortCounters {
	s.ensurePort(i)
	return s.ports[i]
}

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
			PortCounters:  s.ports[i],
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
