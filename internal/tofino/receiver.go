package tofino

import (
	"slices"

	"marlin/internal/flowtab"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

// ReceiverMode selects Module A's behaviour (§4.1: "the method of handling
// DATA packets varies depending on the specific CC algorithm employed").
type ReceiverMode int

// Receiver modes.
const (
	// TCPReceiver acknowledges cumulatively, buffers out-of-order
	// arrivals, and echoes CE marks per packet (DCTCP-exact echo).
	TCPReceiver ReceiverMode = iota
	// RoCEReceiver drops out-of-order arrivals and NACKs them
	// (go-back-N), and converts CE marks into rate-limited CNPs (DCQCN).
	RoCEReceiver
)

func (m ReceiverMode) String() string {
	if m == RoCEReceiver {
		return "roce"
	}
	return "tcp"
}

// rxFlow is the per-flow receive state kept in switch registers: "the
// programmable switch updates the receive window by reading the PSN of the
// DATA packet" (§3.2).
type rxFlow struct {
	expected uint32
	// ooo is one more than the index of the flow's out-of-order set in
	// Receiver.sets, or 0 while the flow has no gap.
	ooo     uint32
	cnpSent bool
	nacked  bool
	lastCNP sim.Time
}

// oooSet is a TCP flow's buffered out-of-order PSNs, kept as runs of
// consecutive ones: runs[head:] in sequence order, each after the flow's
// expected PSN, with a hole before each. Its size follows the holes, not
// the window: the usual arrival after a hole extends the last run, a fill
// merges two, and the in-order arrival that closes the first hole pops a
// whole run.
type oooSet struct {
	runs []psnRun
	head int
}

// psnRun is the buffered PSNs lo through hi, in circular sequence order.
type psnRun struct{ lo, hi uint32 }

// setRuns is the room a new out-of-order set starts with: enough for the
// holes a flow's window usually has at once.
const setRuns = 8

// add buffers psn, which follows the flow's expected PSN; a PSN already
// buffered changes nothing.
func (s *oooSet) add(psn uint32) {
	rs := s.runs[s.head:]
	n := len(rs)
	if n == 0 || seqAfter(psn, rs[n-1].hi+1) {
		s.insert(n, psn)
		return
	}
	if psn == rs[n-1].hi+1 {
		rs[n-1].hi = psn
		return
	}
	// i is the first run that ends at or after psn.
	i, _ := slices.BinarySearchFunc(rs, psn, func(r psnRun, psn uint32) int { return seqCmp(r.hi, psn) })
	if !seqAfter(rs[i].lo, psn) {
		return // rs[i] holds psn
	}
	afterPrev := i > 0 && rs[i-1].hi+1 == psn
	beforeNext := rs[i].lo == psn+1
	switch {
	case afterPrev && beforeNext:
		rs[i-1].hi = rs[i].hi
		s.runs = slices.Delete(s.runs, s.head+i, s.head+i+1)
	case afterPrev:
		rs[i-1].hi = psn
	case beforeNext:
		rs[i].lo = psn
	default:
		s.insert(i, psn)
	}
}

// insert places the run [psn, psn] at index i of runs[head:], moving the
// live runs to the front first when the slice is full and some have been
// drained.
func (s *oooSet) insert(i int, psn uint32) {
	if s.head > 0 && len(s.runs) == cap(s.runs) {
		s.runs = s.runs[:copy(s.runs, s.runs[s.head:])]
		s.head = 0
	}
	s.runs = slices.Insert(s.runs, s.head+i, psnRun{psn, psn})
}

// Receiver is Module A (§4.1), defined once and run in either of two
// placements; each pipeline has one (Pipeline.Receiver), and its counters
// are the pipeline's registers wherever it runs. In the switch, the pipeline feeds it every DATA packet that
// reaches a receiver port (Pipeline.DataIn). For a CC algorithm whose
// receiver side is "too complex to be implemented in the programmable
// switch", it runs on the FPGA across the reserved port instead (Figure 2's
// dashed path): the switch truncates arriving DATA to 64 bytes, writes the
// arrival port into it and forwards it to Node, and every port's ACK output
// is the one cable back to Pipeline.FPGAAckIn, which routes the responses
// by that port. One 100 Gbps reserved port carries a full pipeline's
// truncations: 12 ports x 11.97 Mpps of 64-byte frames is ~96 Gbps of wire.
type Receiver struct {
	eng         *sim.Engine
	mode        ReceiverMode
	cnpInterval sim.Duration
	pool        *packet.Pool
	flows       flowtab.Table[rxFlow]
	ackOut      []netem.Node

	// sets holds the out-of-order sets of the TCP flows with a gap, and
	// spare the indices of drained ones, which keep their capacity: a
	// receive row stays 24 B, and a warm receiver buffers reordering
	// without allocating unless a flow has more holes at once than any
	// before it.
	sets  []oooSet
	spare []uint32

	ackTx  uint64
	cnpTx  uint64
	nackTx uint64
	dataRx uint64
	oooRx  uint64
	dupRx  uint64
}

// newReceiver builds Module A in the given mode. CNPs are spaced at least
// cnpInterval apart per flow (0: one per CE-marked arrival); pool supplies
// the NACKs and CNPs it creates: the pipeline's, or the shared pool (nil)
// for a receiver outside a tester.
func newReceiver(eng *sim.Engine, mode ReceiverMode, cnpInterval sim.Duration, pool *packet.Pool) *Receiver {
	return &Receiver{eng: eng, mode: mode, cnpInterval: cnpInterval, pool: pool}
}

// ConnectAck attaches the return path of responses to DATA that arrived at
// receiver port port.
func (r *Receiver) ConnectAck(port int, out netem.Node) {
	for port >= len(r.ackOut) {
		r.ackOut = append(r.ackOut, nil)
	}
	r.ackOut[port] = out
}

// Reset clears a flow's receive state so its slot can be reused.
func (r *Receiver) Reset(id packet.FlowID) {
	if f := r.flows.Get(id); f != nil {
		if f.ooo != 0 {
			r.freeSet(f)
		}
		*f = rxFlow{}
	}
}

// Node returns the Node the reserved-port cable delivers truncated DATA
// to; each packet's Port is its arrival port, as the switch wrote it.
func (r *Receiver) Node() netem.Node {
	return netem.NodeFunc(func(p *packet.Packet) { r.onData(p.Port, p) })
}

// onData handles one arriving DATA packet at a receiver port (§3.2 steps
// 3-4): update receive state, then "generate ACK packets by truncating
// DATA packets to 64 bytes and rewriting their header fields".
func (r *Receiver) onData(port int, p *packet.Packet) {
	if p.Type != packet.DATA {
		p.Release()
		return
	}
	r.dataRx++
	f := r.flows.Slot(p.Flow)
	ce := p.Flags.Has(packet.FlagCE)
	switch {
	case p.PSN == f.expected:
		f.expected++
		if f.ooo != 0 { // only a TCP receiver buffers
			r.drain(f)
		}
		f.nacked = false
	case seqAfter(p.PSN, f.expected):
		r.oooRx++
		if r.mode == TCPReceiver {
			r.buffer(f, p.PSN)
		} else {
			// Go-back-N: discard and NACK once per gap episode.
			if !f.nacked {
				f.nacked = true
				r.sendNack(port, p, f.expected)
			}
			if ce {
				r.maybeCNP(port, p, f)
			}
			p.Release() // go-back-N discards the out-of-order frame
			return
		}
	default:
		r.dupRx++
	}

	if r.mode == RoCEReceiver && ce {
		r.maybeCNP(port, p, f)
	}
	r.sendAck(port, p, f.expected, ce)
}

// buffer adds psn, which follows f.expected, to f's out-of-order set,
// taking a set for f if it has none; a PSN already buffered is dropped.
func (r *Receiver) buffer(f *rxFlow, psn uint32) {
	if f.ooo == 0 {
		if n := len(r.spare); n > 0 {
			f.ooo = r.spare[n-1]
			r.spare = r.spare[:n-1]
		} else {
			r.sets = append(r.sets, oooSet{runs: make([]psnRun, 0, setRuns)})
			f.ooo = uint32(len(r.sets))
		}
	}
	r.sets[f.ooo-1].add(psn)
}

// drain advances f.expected over the buffered PSNs that now follow it in
// order, at most one run since a hole follows each, and gives the set back
// once it is empty.
func (r *Receiver) drain(f *rxFlow) {
	s := &r.sets[f.ooo-1]
	if first := s.runs[s.head]; first.lo == f.expected {
		f.expected = first.hi + 1
		s.head++
	}
	if s.head == len(s.runs) {
		r.freeSet(f)
	}
}

// freeSet empties f's out-of-order set and keeps it, with its capacity,
// for the next flow that sees a gap.
func (r *Receiver) freeSet(f *rxFlow) {
	s := &r.sets[f.ooo-1]
	s.runs, s.head = s.runs[:0], 0
	r.spare = append(r.spare, f.ooo)
	f.ooo = 0
}

// sendAck emits the acknowledgement by truncating and rewriting the DATA
// frame in place (§3.2 step 4), consuming it: Flow, PSN, Port, SentAt,
// the ECT codepoint bits and the INT telemetry stack are echoed verbatim,
// everything else is rewritten. Port is the arrival port on the reserved-
// port placement, which routes the response by it; Module B overwrites it
// with the flow's bound port on either placement.
func (r *Receiver) sendAck(port int, d *packet.Packet, cumAck uint32, ce bool) {
	out := r.out(port)
	if out == nil {
		d.Release()
		return
	}
	d.Type = packet.ACK
	d.Ack = cumAck
	d.Size = packet.ControlSize
	d.RxTime = r.eng.Now()
	d.Flags &= packet.ECTMask
	if ce && r.mode == TCPReceiver {
		d.Flags |= packet.FlagECNEcho
	}
	r.ackTx++
	out.Receive(d)
}

func (r *Receiver) sendNack(port int, d *packet.Packet, expected uint32) {
	out := r.out(port)
	if out == nil {
		return
	}
	n := r.pool.Get()
	n.Type = packet.ACK
	n.Flow = d.Flow
	n.PSN = d.PSN
	n.Ack = expected
	n.Flags = packet.FlagNACK | d.Flags&packet.ECTMask
	n.Size = packet.ControlSize
	n.Port = d.Port
	n.SentAt = d.SentAt
	n.RxTime = r.eng.Now()
	r.nackTx++
	out.Receive(n)
}

// maybeCNP emits a DCQCN congestion-notification packet, at most one per
// cnpInterval per flow (the NP-side pacing of the DCQCN spec).
func (r *Receiver) maybeCNP(port int, d *packet.Packet, f *rxFlow) {
	now := r.eng.Now()
	if f.cnpSent && now.Sub(f.lastCNP) < r.cnpInterval {
		return
	}
	out := r.out(port)
	if out == nil {
		return
	}
	f.lastCNP = now
	f.cnpSent = true
	cnp := r.pool.Get()
	cnp.Type = packet.CNP
	cnp.Flow = d.Flow
	cnp.PSN = d.PSN
	cnp.Ack = f.expected
	cnp.Flags = packet.FlagCNPNotify
	cnp.Size = packet.ControlSize
	cnp.Port = d.Port
	cnp.SentAt = d.SentAt
	cnp.RxTime = now
	r.cnpTx++
	out.Receive(cnp)
}

func (r *Receiver) out(port int) netem.Node {
	if port < 0 || port >= len(r.ackOut) {
		return nil
	}
	return r.ackOut[port]
}

// seqAfter reports whether a follows b in 32-bit circular sequence space.
func seqAfter(a, b uint32) bool { return int32(a-b) > 0 }

// seqCmp orders PSNs in circular sequence space, for sets that span less
// than half of it.
func seqCmp(a, b uint32) int { return int(int32(a - b)) }
