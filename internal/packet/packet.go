// Package packet defines Marlin's packet taxonomy and wire formats.
//
// Marlin distinguishes five packet roles (§3.1 of the paper):
//
//   - TEMP: template packets that circulate at line rate inside the
//     programmable switch and are multicast to egress ports.
//   - DATA: full-MTU test traffic, produced by rewriting a TEMP packet with
//     metadata dequeued from a register queue.
//   - ACK: 64-byte acknowledgements produced by truncating received DATA.
//   - INFO: 64-byte flow-state digests the switch sends to the FPGA NIC.
//   - SCHE: 64-byte scheduling instructions the FPGA sends to the switch.
//
// Congestion notification packets (CNPs, used by DCQCN) are modelled as a
// sixth role; the switch encapsulates them into INFO packets exactly like
// ACKs (§3.2 step 6).
//
// The 64-byte control roles have a concrete binary layout (see Marshal) so
// that the model exercises real parse/deparse paths, not just struct copies.
package packet

import (
	"slices"
	"sync"
	"sync/atomic"

	"marlin/internal/sim"
)

// Type is a packet role.
type Type uint8

// Packet roles.
const (
	TEMP Type = iota + 1
	DATA
	ACK
	INFO
	SCHE
	CNP
)

// String returns the conventional upper-case role name.
func (t Type) String() string {
	switch t {
	case TEMP:
		return "TEMP"
	case DATA:
		return "DATA"
	case ACK:
		return "ACK"
	case INFO:
		return "INFO"
	case SCHE:
		return "SCHE"
	case CNP:
		return "CNP"
	default:
		return "UNKNOWN"
	}
}

// FlowID identifies a flow within a test. The FPGA BRAM models address
// flow state by FlowID, so IDs are dense small integers.
type FlowID uint32

// Flags carries per-packet signal bits.
type Flags uint16

// Flag bits.
const (
	// FlagECNCapable marks the packet ECT(0): eligible for CE marking.
	FlagECNCapable Flags = 1 << iota
	// FlagCE is the Congestion Experienced mark set by a congested queue.
	FlagCE
	// FlagECNEcho is the receiver's echo of CE back to the sender (ECE).
	FlagECNEcho
	// FlagNACK indicates an out-of-order arrival (RoCE-style NACK).
	FlagNACK
	// FlagCNPNotify marks a DCQCN congestion notification.
	FlagCNPNotify
	// FlagFIN marks the last packet of a flow.
	FlagFIN
	// FlagRetransmit marks a retransmitted DATA packet (diagnostics only).
	FlagRetransmit
	// FlagECT1 distinguishes ECT(1) from ECT(0) on ECN-capable packets:
	// FlagECNCapable alone is ECT(0), FlagECNCapable|FlagECT1 is ECT(1) —
	// the L4S identifier (RFC 9331) that dual-queue AQMs classify on.
	FlagECT1
)

// Has reports whether all bits in mask are set.
func (f Flags) Has(mask Flags) bool { return f&mask == mask }

// ECT is an ECN codepoint: whether a packet advertises ECN capability and,
// if so, which ECT identifier it carries. CE is not an ECT value — it is
// the FlagCE mark a congested queue adds on top of an ECT codepoint.
type ECT uint8

// ECN codepoints.
const (
	// NotECT opts the packet out of ECN: congested queues drop it.
	NotECT ECT = iota
	// ECT0 is the classic RFC 3168 codepoint.
	ECT0
	// ECT1 is the L4S codepoint (RFC 9331): scalable CC traffic that a
	// dual-queue AQM steers into its low-latency queue.
	ECT1
)

// String returns the conventional codepoint name.
func (e ECT) String() string {
	switch e {
	case ECT0:
		return "ect0"
	case ECT1:
		return "ect1"
	default:
		return "not-ect"
	}
}

// ECTMask selects the flag bits that encode the ECT codepoint.
const ECTMask = FlagECNCapable | FlagECT1

// Bits returns the flag encoding of the codepoint.
func (e ECT) Bits() Flags {
	switch e {
	case ECT0:
		return FlagECNCapable
	case ECT1:
		return FlagECNCapable | FlagECT1
	default:
		return 0
	}
}

// ECT decodes the packet's ECN codepoint from its flag bits.
func (p *Packet) ECT() ECT {
	if !p.Flags.Has(FlagECNCapable) {
		return NotECT
	}
	if p.Flags.Has(FlagECT1) {
		return ECT1
	}
	return ECT0
}

// SetECT rewrites the packet's ECN codepoint in place, leaving every other
// flag (including an existing CE mark) untouched.
func (p *Packet) SetECT(e ECT) {
	p.Flags = (p.Flags &^ ECTMask) | e.Bits()
}

// ControlSize is the wire size of every TEMP-derived control packet
// (ACK, INFO, SCHE, CNP): 64 bytes, the Ethernet minimum frame.
const ControlSize = 64

// WireOverhead is the per-frame Ethernet overhead that occupies the wire
// but not the frame: 8 bytes of preamble/SFD plus a 12-byte inter-frame
// gap. The paper's rate constants include it: 100 Gbps / ((64+20)*8 b) =
// 148.8 Mpps for SCHE packets, 11.97 Mpps at MTU 1024, 8.127 Mpps at 1518.
const WireOverhead = 20

// WireSize is the wire occupancy of a frame of the given size.
func WireSize(frameBytes int) int { return frameBytes + WireOverhead }

// HeaderOverhead approximates Ethernet+IP+transport header bytes carried by
// each DATA packet; goodput computations subtract it.
const HeaderOverhead = 58

// Packet is the in-simulation representation of a frame. A single struct
// covers all roles; role-irrelevant fields are zero.
//
// Packets are passed by pointer and mutated in place along their path, the
// way a switch pipeline rewrites headers.
type Packet struct {
	// Type is the packet role.
	Type Type
	// Flags carries ECN/NACK/CNP/FIN signal bits.
	Flags Flags
	// Flow is the flow the packet belongs to (all roles except TEMP).
	Flow FlowID
	// PSN is the packet sequence number. For DATA/SCHE it is the sequence
	// of the described data packet; for ACK/INFO it is the next expected
	// PSN (cumulative acknowledgement).
	PSN uint32
	// Ack carries the cumulative acknowledgement on ACK/INFO packets.
	Ack uint32
	// Size is the frame's wire size in bytes.
	Size int
	// Port is the switch egress port the flow is bound to. SCHE packets
	// use it to select the register queue; INFO packets report it so the
	// FPGA can demultiplex to the right RX FIFO.
	Port int
	// SentAt is the timestamp stamped by the sender when the described
	// DATA packet was scheduled; receivers echo it so the FPGA can probe
	// RTT (the prb-rtt input of the CC module interface, Table 3).
	SentAt sim.Time
	// RxTime is the timestamp the receiver logic observed the packet;
	// used when deriving one-way metrics in measurements.
	RxTime sim.Time
	// EnqAt is the instant the packet entered its current queue, stamped
	// by AQM-managed queues so sojourn-based disciplines (CoDel, PIE,
	// DualPI2's L4S step) can measure standing delay at dequeue. It is
	// queue-local state, not wire data: each enqueue restamps it.
	EnqAt sim.Time
	// INT carries in-band network telemetry stamped by traversed hops
	// (for INT-based CC such as HPCC); receivers echo it onto ACKs and
	// the switch forwards it inside INFO packets, as the packet itself is
	// rewritten in place. It is nil until a hop stamps the packet
	// (PushINT): the record lives out of line, drawn from and returned to
	// the packet's pool, so a packet that is never stamped carries 8 B of
	// telemetry, not 168.
	INT *INTRecord

	// pool is where Release returns the packet: nil for the shared pool.
	pool *Pool
}

// MaxINTHops bounds the telemetry stack a packet can carry; data-center
// paths the paper targets are at most five hops.
const MaxINTHops = 5

// INTHop is one hop's telemetry: the egress queue depth at departure, the
// cumulative bytes the egress had transmitted, the link rate, and the
// local timestamp — the fields HPCC's utilization estimator consumes.
type INTHop struct {
	QueueBytes uint32
	TxBytes    uint64
	Rate       sim.Rate
	TS         sim.Time
}

// INTRecord is the per-packet telemetry stack.
type INTRecord struct {
	NHops uint8
	Hops  [MaxINTHops]INTHop
}

// Push appends one hop's telemetry; stacks beyond MaxINTHops drop the
// extra hops (counted by the stamping link).
func (r *INTRecord) Push(h INTHop) bool {
	if int(r.NHops) >= MaxINTHops {
		return false
	}
	r.Hops[r.NHops] = h
	r.NHops++
	return true
}

// pool recycles Packet structs across the packet lifecycle for callers
// without a Pool of their own, and intPool their telemetry records: a
// sync.Pool each, because any goroutine may use them. Pooled packets and
// records are always zeroed: Release clears before putting back.
var (
	pool    = sync.Pool{New: func() any { return new(Packet) }}
	intPool = sync.Pool{New: func() any { return new(INTRecord) }}
)

// Pool is a free list of packets owned by one goroutine-confined
// simulation: a one-island tester's devices share one, and so do the
// devices of each island of a sharded tester. Every packet it hands out
// goes back to it on Release. Once it holds the run's peak of packets in
// flight, Get and Release neither lock nor allocate, and what they
// allocate before that is a pure function of the simulated traffic. The
// shared sync.Pool cannot promise that: its per-P caches grow and shrink as
// the Go scheduler moves the goroutine between Ps, so allocation counts
// taken around a run vary from one process to the next.
//
// A pool keeps its own books: it counts the packets and telemetry records
// it has minted, and Outstanding sets them against its free lists, so a
// test or an oracle can audit one tester for leaks while others run.
//
// A nil *Pool is the shared pool, which any goroutine may use; it serves
// callers outside a tester, and counts only what it hands out
// (SharedTakes). A non-nil one must only be used, through its packets'
// Release and Clone too, by one goroutine at a time. A packet that crosses
// to another goroutine's simulation changes pools on arrival (Adopt), and
// Balance moves free packets between pools while none of their goroutines
// runs.
type Pool struct {
	free []*Packet
	// ints is the free list of telemetry records its packets carry: a
	// record is taken when a hop first stamps a packet and comes back on
	// the packet's Release, so a tester without INT never takes one.
	ints []*INTRecord
	// minted counts the packets in the slabs Get has allocated: a cold pool
	// grows in slabs of 8, 16, 32 and then 64 packets, so a short test
	// pays a handful of allocations for its packets, not one each.
	// mintedINT counts the telemetry records it has allocated.
	minted, mintedINT int
}

// Slab bounds for a Pool's growth: a small first slab keeps a tester that
// moves few packets small, and the cap keeps a slab's spare packets to a
// fraction of what a busy tester holds in flight anyway.
const (
	minSlab = 8
	maxSlab = 64
)

// shared counts the packets and telemetry records taken from the shared
// pool.
var shared atomic.Int64

// SharedTakes returns how many packets and telemetry records have been
// taken from the shared pool (a nil *Pool) since the process started: a
// test of a path that must draw only from pools of its own expects its
// change over the run to be 0.
func SharedTakes() int64 { return shared.Load() }

// Outstanding returns how many packets and telemetry records the pools
// have minted and do not hold free: those a simulation still holds, in
// flight or leaked. Pass every pool the packets can move between, since
// Adopt and Balance move them without changing the sum. The shared pool (a
// nil *Pool) keeps no books and counts 0.
func Outstanding(pools ...*Pool) (packets, records int) {
	for _, q := range pools {
		if q != nil {
			packets += q.minted - len(q.free)
			records += q.mintedINT - len(q.ints)
		}
	}
	return packets, records
}

// Get returns a zeroed Packet from the shared pool. Callers that build a
// packet field-by-field (wire parsing, custom roles) use Get directly; the
// common roles have typed constructors below.
func Get() *Packet { return (*Pool)(nil).Get() }

// Get returns a zeroed Packet from q, or from the shared pool when q is
// nil. Release returns it to the same pool.
func (q *Pool) Get() *Packet {
	if q == nil {
		shared.Add(1)
		return pool.Get().(*Packet)
	}
	n := len(q.free)
	if n == 0 {
		return q.grow()
	}
	p := q.free[n-1]
	q.free[n-1] = nil
	q.free = q.free[:n-1]
	return p
}

// grow allocates the next slab, minSlab packets more than the pool has
// minted (which doubles the last slab) up to maxSlab, keeps its first
// packet for the caller and puts the rest on the free list, last first, so
// Get hands them out in address order.
func (q *Pool) grow() *Packet {
	slab := make([]Packet, min(q.minted+minSlab, maxSlab))
	q.minted += len(slab)
	q.free = slices.Grow(q.free, len(slab)-1)
	for i := len(slab) - 1; i > 0; i-- {
		slab[i].pool = q
		q.free = append(q.free, &slab[i])
	}
	slab[0].pool = q
	return &slab[0]
}

// Release returns p to the pool it came from once it reaches end-of-life.
// Ownership rule: passing a packet to a component's Receive transfers
// ownership; whoever consumes, drops, or retires the packet calls Release
// exactly once, and must not touch it afterwards. Components that retain a
// packet past their handler (e.g. capture sinks) must Clone it instead of
// keeping the original.
func (p *Packet) Release() {
	p.ClearINT()
	q := p.pool
	*p = Packet{pool: q}
	if q == nil {
		pool.Put(p)
	} else {
		q.free = append(q.free, p)
	}
}

// Adopt makes q the pool p goes back to on Release. A packet that arrives
// from a simulation running on another goroutine is adopted by the
// receiving one's pool before anything there can Release or Clone it; the
// sender's pool never sees it again. A telemetry record p carries moves
// with it.
func (q *Pool) Adopt(p *Packet) { p.pool = q }

// Balance evens out the free lists of pools that different goroutines own,
// at a barrier where none of them runs. A pool that absorbs more packets
// than it mints (its packets' drops happen elsewhere, or others' happen on
// it) would otherwise hoard them while the pool that mints them allocates
// more. Each pool keeps at most high free packets and high telemetry
// records of each kind it has minted, and none of a kind it never minted
// (a partition of transit switches absorbs packets but never makes one),
// and passes the rest to reserve; then each pool, in order, takes from
// reserve what it lacks of that, as far as reserve holds any. Neither step
// allocates once the lists have grown to their peak, and which packets
// move is a pure function of the pools' lists, whatever goroutines ran
// them.
func Balance(pools []*Pool, reserve *Pool, high int) {
	for _, q := range pools {
		n, m := q.keep(high)
		q.give(reserve, len(q.free)-n, len(q.ints)-m)
	}
	for _, q := range pools {
		n, m := q.keep(high)
		reserve.give(q, n-len(q.free), m-len(q.ints))
	}
}

// keep returns how many free packets and telemetry records Balance leaves
// q: high of each kind q has minted, none of the others.
func (q *Pool) keep(high int) (n, m int) {
	if q.minted > 0 {
		n = high
	}
	if q.mintedINT > 0 {
		m = high
	}
	return n, m
}

// give moves up to n free packets and m free telemetry records from the
// top of q's lists to dst's, making dst their pool.
func (q *Pool) give(dst *Pool, n, m int) {
	if n = min(n, len(q.free)); n > 0 {
		moved := q.free[len(q.free)-n:]
		for _, p := range moved {
			p.pool = dst
		}
		dst.free = append(dst.free, moved...)
		clear(moved)
		q.free = q.free[:len(q.free)-n]
	}
	if m = min(m, len(q.ints)); m > 0 {
		moved := q.ints[len(q.ints)-m:]
		dst.ints = append(dst.ints, moved...)
		clear(moved)
		q.ints = q.ints[:len(q.ints)-m]
	}
}

// Spare returns how many free packets q, not the shared pool, holds.
func (q *Pool) Spare() int { return len(q.free) }

// NewData returns a DATA packet of the given frame size, carrying the
// default ECT(0) codepoint.
func NewData(flow FlowID, psn uint32, size int, sentAt sim.Time) *Packet {
	return (*Pool)(nil).NewData(flow, psn, size, sentAt)
}

// NewData is the package-level NewData drawing from q.
func (q *Pool) NewData(flow FlowID, psn uint32, size int, sentAt sim.Time) *Packet {
	p := q.Get()
	p.Type, p.Flow, p.PSN, p.Size, p.SentAt, p.Flags = DATA, flow, psn, size, sentAt, FlagECNCapable
	return p
}

// NewDataECT returns a DATA packet with an explicit ECN codepoint — the
// constructor flood injectors use to compare Not-ECT against ECT(1) abuse.
func NewDataECT(flow FlowID, psn uint32, size int, sentAt sim.Time, ect ECT) *Packet {
	return (*Pool)(nil).NewDataECT(flow, psn, size, sentAt, ect)
}

// NewDataECT is the package-level NewDataECT drawing from q.
func (q *Pool) NewDataECT(flow FlowID, psn uint32, size int, sentAt sim.Time, ect ECT) *Packet {
	p := q.Get()
	p.Type, p.Flow, p.PSN, p.Size, p.SentAt, p.Flags = DATA, flow, psn, size, sentAt, ect.Bits()
	return p
}

// NewSche returns a 64-byte SCHE packet instructing the switch to emit the
// flow's next DATA packet on the given port.
func NewSche(flow FlowID, psn uint32, port int, now sim.Time) *Packet {
	return (*Pool)(nil).NewSche(flow, psn, port, now)
}

// NewSche is the package-level NewSche drawing from q.
func (q *Pool) NewSche(flow FlowID, psn uint32, port int, now sim.Time) *Packet {
	p := q.Get()
	p.Type, p.Flow, p.PSN, p.Port, p.Size, p.SentAt = SCHE, flow, psn, port, ControlSize, now
	return p
}

// NewAck returns a 64-byte ACK carrying the cumulative acknowledgement ack
// in response to the DATA packet with sequence psn.
func NewAck(flow FlowID, psn, ack uint32, rx sim.Time) *Packet {
	p := Get()
	p.Type, p.Flow, p.PSN, p.Ack, p.Size, p.RxTime = ACK, flow, psn, ack, ControlSize, rx
	return p
}

// Clone returns a pooled copy of p. Multicast paths clone rather than
// alias; the clone has its own lifetime and its own Release, and its own
// copy of the telemetry stack.
func (p *Packet) Clone() *Packet {
	q := p.pool.Get()
	*q = *p
	if p.INT != nil {
		q.INT = p.pool.getINT()
		*q.INT = *p.INT
	}
	return q
}

// PushINT appends one hop's telemetry to the packet's stack, taking a
// record from the packet's pool on the first hop; it reports Push's result.
func (p *Packet) PushINT(h INTHop) bool {
	if p.INT == nil {
		p.INT = p.pool.getINT()
	}
	return p.INT.Push(h)
}

// ClearINT drops the packet's telemetry stack, returning its record to the
// packet's pool.
func (p *Packet) ClearINT() {
	if p.INT != nil {
		p.pool.putINT(p.INT)
		p.INT = nil
	}
}

// getINT returns a zeroed telemetry record from q, or from the shared
// record pool when q is nil.
func (q *Pool) getINT() *INTRecord {
	if q == nil {
		shared.Add(1)
		return intPool.Get().(*INTRecord)
	}
	n := len(q.ints)
	if n == 0 {
		q.mintedINT++
		return new(INTRecord)
	}
	r := q.ints[n-1]
	q.ints[n-1] = nil
	q.ints = q.ints[:n-1]
	return r
}

// putINT zeroes r and returns it to q, or to the shared record pool when q
// is nil.
func (q *Pool) putINT(r *INTRecord) {
	*r = INTRecord{}
	if q == nil {
		intPool.Put(r)
	} else {
		q.ints = append(q.ints, r)
	}
}

// Payload returns the DATA packet's payload size after header overhead;
// control packets carry no payload.
func (p *Packet) Payload() int {
	if p.Type != DATA || p.Size <= HeaderOverhead {
		return 0
	}
	return p.Size - HeaderOverhead
}
