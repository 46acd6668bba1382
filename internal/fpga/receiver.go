package fpga

import (
	"marlin/internal/flowtab"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

// Receiver is the FPGA-side receiver logic of Figure 2's dashed path: when
// a CC algorithm's receiver side is "too complex to be implemented in the
// programmable switch" (§4.1), the switch truncates arriving DATA packets
// to 64 bytes and forwards them over the reserved port; this module
// processes them at line rate and returns ACK/NACK/CNP packets.
//
// One 100 Gbps port suffices for a full pipeline: 12 ports x 11.97 Mpps of
// 64-byte truncations occupy ~96 Gbps of wire (§4.3's reserved port).
//
// The receive state (expected PSN per flow) lives in BRAM like the sender
// state; processing is charged two clock cycles per packet.
type Receiver struct {
	eng         *sim.Engine
	mode        ReceiverMode
	cnpInterval sim.Duration
	out         netem.Node

	flows flowtab.Table[rxFlowState]

	DataRx uint64
	AckTx  uint64
	NackTx uint64
	CnpTx  uint64
	OooRx  uint64
	DupRx  uint64
}

// ReceiverMode mirrors the switch receiver's modes.
type ReceiverMode int

// Receiver modes.
const (
	// TCPReceiver: cumulative ACKs, out-of-order buffering, CE echo.
	TCPReceiver ReceiverMode = iota
	// RoCEReceiver: go-back-N NACKs and paced CNPs.
	RoCEReceiver
)

type rxFlowState struct {
	expected uint32
	cnpSent  bool
	nacked   bool
	ooo      map[uint32]struct{}
	lastCNP  sim.Time
}

// NewReceiver builds the module; responses go to out (the link back to
// the switch).
func NewReceiver(eng *sim.Engine, mode ReceiverMode, cnpInterval sim.Duration, out netem.Node) *Receiver {
	if cnpInterval <= 0 {
		cnpInterval = sim.Micros(4)
	}
	return &Receiver{eng: eng, mode: mode, cnpInterval: cnpInterval, out: out}
}

// Reset clears a flow slot for reuse.
func (r *Receiver) Reset(flow packet.FlowID) {
	if f := r.flows.Get(flow); f != nil {
		*f = rxFlowState{}
	}
}

// DataIn returns the Node the truncated-DATA link delivers to.
func (r *Receiver) DataIn() netem.Node {
	return netem.NodeFunc(r.onData)
}

func (r *Receiver) onData(p *packet.Packet) {
	if p.Type != packet.DATA {
		p.Release()
		return
	}
	r.DataRx++
	f := r.flows.Slot(p.Flow)
	ce := p.Flags.Has(packet.FlagCE)
	switch {
	case p.PSN == f.expected:
		f.expected++
		if r.mode == TCPReceiver {
			for len(f.ooo) > 0 {
				if _, ok := f.ooo[f.expected]; !ok {
					break
				}
				delete(f.ooo, f.expected)
				f.expected++
			}
		}
		f.nacked = false
	case int32(p.PSN-f.expected) > 0:
		r.OooRx++
		if r.mode == TCPReceiver {
			if f.ooo == nil {
				f.ooo = make(map[uint32]struct{})
			}
			f.ooo[p.PSN] = struct{}{}
		} else {
			if !f.nacked {
				f.nacked = true
				r.emit(p, f.expected, packet.FlagNACK)
				r.NackTx++
			}
			if ce {
				r.maybeCNP(p, f)
			}
			p.Release() // go-back-N discards the out-of-order frame
			return
		}
	default:
		r.DupRx++
	}
	if r.mode == RoCEReceiver && ce {
		r.maybeCNP(p, f)
	}
	var flags packet.Flags
	if ce && r.mode == TCPReceiver {
		flags |= packet.FlagECNEcho
	}
	r.emit(p, f.expected, flags)
	r.AckTx++
	p.Release()
}

func (r *Receiver) emit(d *packet.Packet, cumAck uint32, flags packet.Flags) {
	if r.out == nil {
		return
	}
	a := packet.Get()
	a.Type = packet.ACK
	a.Flow = d.Flow
	a.PSN = d.PSN
	a.Ack = cumAck
	a.Flags = flags
	a.Size = packet.ControlSize
	a.Port = d.Port // arrival port, so the switch can route the ACK
	a.SentAt = d.SentAt
	a.RxTime = r.eng.Now()
	a.INT = d.INT
	r.out.Receive(a)
}

func (r *Receiver) maybeCNP(d *packet.Packet, f *rxFlowState) {
	now := r.eng.Now()
	if f.cnpSent && now.Sub(f.lastCNP) < r.cnpInterval {
		return
	}
	f.cnpSent = true
	f.lastCNP = now
	r.CnpTx++
	if r.out == nil {
		return
	}
	cnp := packet.Get()
	cnp.Type = packet.CNP
	cnp.Flow = d.Flow
	cnp.PSN = d.PSN
	cnp.Ack = f.expected
	cnp.Flags = packet.FlagCNPNotify
	cnp.Size = packet.ControlSize
	cnp.Port = d.Port
	cnp.SentAt = d.SentAt
	cnp.RxTime = now
	r.out.Receive(cnp)
}
