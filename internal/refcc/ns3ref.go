// Package refcc contains the reference congestion-control stacks Marlin is
// validated against: a host-style DCTCP implementation standing in for the
// paper's ns-3 simulation (Figure 5), and a commercial-NIC-style DCQCN
// implementation standing in for the Mellanox ConnectX-5 (Figure 9).
//
// Both are deliberately independent implementations: they use
// floating-point arithmetic and host-software structure rather than the
// fixed-point, register-file style of the FPGA modules, so that agreement
// between their traces and Marlin's is evidence of correctness, not of
// shared code.
package refcc

import (
	"marlin/internal/measure"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

// DCTCPSender is a textbook DCTCP/Reno sender (slow start, congestion
// avoidance, fast retransmit/recovery, per-RTT alpha with gain g,
// cwnd *= 1-alpha/2 on ECE) operating directly on a netem link. It stands
// in for the ns-3 node of §7.1.
type DCTCPSender struct {
	eng  *sim.Engine
	out  netem.Node
	flow packet.FlowID
	mtu  int
	rate sim.Rate

	cwnd     float64
	ssthresh float64
	alpha    float64
	g        float64

	una, nxt   uint32
	inRecovery bool
	recover    uint32
	dupAcks    int

	ackedW, markedW uint32
	wndEnd          uint32
	cwrEnd          uint32

	nextSend sim.Time
	sendArm  bool
	rto      sim.Duration
	rtoTimer sim.Handle

	// sendFn and rtoFn are allocated once; scheduling a fresh closure or
	// method value would allocate per packet.
	sendFn sim.Func
	rtoFn  sim.Func

	// CwndTrace and AlphaTrace record every parameter change, matching
	// Marlin's fine-grained logging for the Figure 5 comparison.
	CwndTrace  measure.StepTrace
	AlphaTrace measure.StepTrace
}

// DCTCPConfig configures the reference sender.
type DCTCPConfig struct {
	Flow     packet.FlowID
	MTU      int
	LineRate sim.Rate
	// InitCwnd and Ssthresh in packets (§7.1 uses 1 and 64).
	InitCwnd float64
	Ssthresh float64
	// G is the DCTCP gain (default 1/16).
	G float64
	// RTO is the retransmission timeout (default 500us).
	RTO sim.Duration
}

// NewDCTCPSender builds the sender; out is the first hop toward the
// receiver.
func NewDCTCPSender(eng *sim.Engine, cfg DCTCPConfig, out netem.Node) *DCTCPSender {
	if cfg.G == 0 {
		cfg.G = 1.0 / 16
	}
	if cfg.RTO == 0 {
		cfg.RTO = sim.Micros(500)
	}
	if cfg.InitCwnd == 0 {
		cfg.InitCwnd = 1
	}
	s := &DCTCPSender{
		eng: eng, out: out, flow: cfg.Flow, mtu: cfg.MTU, rate: cfg.LineRate,
		cwnd: cfg.InitCwnd, ssthresh: cfg.Ssthresh, g: cfg.G, rto: cfg.RTO,
	}
	s.sendFn = func() {
		s.sendArm = false
		s.trySend()
	}
	s.rtoFn = s.onTimeout
	s.logCwnd()
	s.logAlpha()
	return s
}

// Start begins transmission of an unbounded flow.
func (s *DCTCPSender) Start() { s.trySend() }

func (s *DCTCPSender) logCwnd() {
	s.CwndTrace = append(s.CwndTrace, measure.Point{At: s.eng.Now(), V: s.cwnd})
}

func (s *DCTCPSender) logAlpha() {
	s.AlphaTrace = append(s.AlphaTrace, measure.Point{At: s.eng.Now(), V: s.alpha})
}

// trySend emits packets while the window allows, paced at line rate.
func (s *DCTCPSender) trySend() {
	for {
		if float64(s.nxt-s.una) >= s.cwnd {
			return
		}
		now := s.eng.Now()
		if now < s.nextSend {
			if !s.sendArm {
				s.sendArm = true
				s.eng.ScheduleAt(s.nextSend, s.sendFn)
			}
			return
		}
		s.emit(s.nxt, false)
		s.nxt++
	}
}

func (s *DCTCPSender) emit(psn uint32, rtx bool) {
	now := s.eng.Now()
	p := packet.NewData(s.flow, psn, s.mtu, now)
	if rtx {
		p.Flags |= packet.FlagRetransmit
	}
	if s.nextSend < now {
		s.nextSend = now
	}
	s.nextSend = s.nextSend.Add(s.rate.Serialize(packet.WireSize(s.mtu)))
	s.armRTO()
	s.out.Receive(p)
}

func (s *DCTCPSender) armRTO() {
	s.rtoTimer.Cancel()
	s.rtoTimer = s.eng.Schedule(s.rto, s.rtoFn)
}

func (s *DCTCPSender) onTimeout() {
	if s.nxt == s.una {
		return
	}
	s.ssthresh = maxF(float64(s.nxt-s.una)/2, 2)
	s.cwnd = 1
	s.inRecovery = false
	s.dupAcks = 0
	s.logCwnd()
	s.emit(s.una, true)
}

// Receive implements netem.Node for the returning ACK stream.
func (s *DCTCPSender) Receive(p *packet.Packet) {
	if p.Type != packet.ACK {
		p.Release()
		return
	}
	ack := p.Ack
	ece := p.Flags.Has(packet.FlagECNEcho)
	p.Release()
	switch {
	case ack > s.una:
		s.onNewAck(ack, ece)
	case ack == s.una && s.nxt != s.una:
		s.onDupAck()
	}
	s.trySend()
}

func (s *DCTCPSender) onNewAck(ack uint32, ece bool) {
	acked := ack - s.una
	s.ackedW += acked
	if ece {
		s.markedW += acked
	}
	if ack >= s.wndEnd && s.ackedW > 0 {
		f := float64(s.markedW) / float64(s.ackedW)
		s.alpha = (1-s.g)*s.alpha + s.g*f
		s.ackedW, s.markedW = 0, 0
		s.wndEnd = s.nxt
		s.logAlpha()
	}
	if ece && !s.inRecovery && ack >= s.cwrEnd {
		s.cwnd = maxF(s.cwnd*(1-s.alpha/2), 1)
		s.ssthresh = maxF(s.cwnd, 1)
		s.cwrEnd = s.nxt
		s.logCwnd()
	}
	if s.inRecovery {
		if ack >= s.recover {
			s.inRecovery = false
			s.dupAcks = 0
			s.cwnd = maxF(s.ssthresh, 1)
			s.logCwnd()
		} else {
			// NewReno partial ack.
			s.una = ack
			s.emit(ack, true)
			return
		}
	} else {
		s.dupAcks = 0
		for i := uint32(0); i < acked; i++ {
			if s.cwnd < s.ssthresh {
				s.cwnd++
			} else {
				s.cwnd += 1 / s.cwnd
			}
		}
		s.logCwnd()
	}
	s.una = ack
	if s.una == s.nxt {
		s.rtoTimer.Cancel()
	} else {
		s.armRTO()
	}
}

func (s *DCTCPSender) onDupAck() {
	s.dupAcks++
	if s.inRecovery {
		s.cwnd++
		s.logCwnd()
		return
	}
	if s.dupAcks == 3 {
		s.ssthresh = maxF(float64(s.nxt-s.una)/2, 2)
		s.cwnd = s.ssthresh + 3
		s.inRecovery = true
		s.recover = s.nxt
		s.logCwnd()
		s.emit(s.una, true)
	}
}

// Receiver is the host-side peer: cumulative ACKs, out-of-order buffering,
// and per-packet CE echo, mirroring a kernel DCTCP receiver.
type Receiver struct {
	eng      *sim.Engine
	out      netem.Node
	expected uint32
	ooo      map[uint32]struct{}
}

// NewReceiver builds a receiver whose ACKs are sent to out.
func NewReceiver(eng *sim.Engine, out netem.Node) *Receiver {
	return &Receiver{eng: eng, out: out, ooo: make(map[uint32]struct{})}
}

// Receive implements netem.Node for the DATA stream.
func (r *Receiver) Receive(p *packet.Packet) {
	if p.Type != packet.DATA {
		p.Release()
		return
	}
	if p.PSN == r.expected {
		r.expected++
		for {
			if _, ok := r.ooo[r.expected]; !ok {
				break
			}
			delete(r.ooo, r.expected)
			r.expected++
		}
	} else if p.PSN > r.expected {
		r.ooo[p.PSN] = struct{}{}
	}
	// Rewrite the consumed DATA packet into its ACK in place. Every field
	// the old ACK literal left at its zero value is reset explicitly.
	ce := p.Flags.Has(packet.FlagCE)
	p.Type = packet.ACK
	p.Ack = r.expected
	p.Size = packet.ControlSize
	p.Port = 0
	p.RxTime = r.eng.Now()
	p.Flags = 0
	if ce {
		p.Flags = packet.FlagECNEcho
	}
	p.ClearINT()
	r.out.Receive(p)
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
