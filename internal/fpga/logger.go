package fpga

import (
	"marlin/internal/cc"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

// Record is one fine-grained log entry: "each computation capable of
// logging 16B of data and a timestamp derived from a 322 MHz hardware
// clock" (§5.1).
type Record struct {
	At   sim.Time
	Flow packet.FlowID
	Data [16]byte
}

// qdmaPacketSize is the aggregation unit the logger uploads to the host:
// "we chose to aggregate the logged content and upload it to the host in
// the form of 1024B packets" (§5.1).
const qdmaPacketSize = 1024

// recordWireSize is one record's on-wire footprint in a QDMA packet:
// 16 B payload + 8 B timestamp + 4 B flow ID.
const recordWireSize = 16 + 8 + 4

// Logger is the fine-grained logging module. It retains up to capacity
// records in a ring (oldest evicted first) and tracks how many QDMA
// upload packets the recorded volume corresponds to.
//
// The ring grows in pieces that are never reallocated, each new one a
// quarter of what is already held: the same 1.25x over-reservation as
// append, without re-copying the whole retained log (32 MiB at the default
// capacity) at every step on the way there.
type Logger struct {
	capacity int
	pieces   [][]Record
	n        int // records retained
	// oldest is the ring position once full: the next record overwrites it.
	oldest struct{ piece, idx int }

	total   uint64
	evicted uint64
}

// logFirstPiece is the smallest piece, in records (8 KiB).
const logFirstPiece = 256

// NewLogger creates a logger retaining up to capacity records
// (0 = 1,048,576).
func NewLogger(capacity int) *Logger {
	if capacity <= 0 {
		capacity = 1 << 20
	}
	return &Logger{capacity: capacity}
}

// Record appends one entry.
func (l *Logger) Record(at sim.Time, flow packet.FlowID, data [16]byte) {
	l.total++
	r := Record{At: at, Flow: flow, Data: data}
	if l.n == l.capacity {
		o := &l.oldest
		l.pieces[o.piece][o.idx] = r
		if o.idx++; o.idx == len(l.pieces[o.piece]) {
			o.idx = 0
			o.piece = (o.piece + 1) % len(l.pieces)
		}
		l.evicted++
		return
	}
	last := len(l.pieces) - 1
	if last < 0 || len(l.pieces[last]) == cap(l.pieces[last]) {
		grow := l.n / 4
		if grow < logFirstPiece {
			grow = logFirstPiece
		}
		if room := l.capacity - l.n; grow > room {
			grow = room
		}
		l.pieces = append(l.pieces, make([]Record, 0, grow))
		last++
	}
	l.pieces[last] = append(l.pieces[last], r)
	l.n++
}

// Len reports retained records.
func (l *Logger) Len() int { return l.n }

// Total reports all records ever logged.
func (l *Logger) Total() uint64 { return l.total }

// Evicted reports records dropped to the ring bound.
func (l *Logger) Evicted() uint64 { return l.evicted }

// QDMAPackets reports how many 1024-byte upload packets the logged volume
// fills.
func (l *Logger) QDMAPackets() uint64 {
	perPacket := uint64(qdmaPacketSize / recordWireSize)
	return (l.total + perPacket - 1) / perPacket
}

// Records returns the retained records in chronological order.
func (l *Logger) Records() []Record {
	out := make([]Record, 0, l.n)
	if l.n == 0 {
		return out
	}
	o := l.oldest
	out = append(out, l.pieces[o.piece][o.idx:]...)
	for k := 1; k < len(l.pieces); k++ {
		out = append(out, l.pieces[(o.piece+k)%len(l.pieces)]...)
	}
	return append(out, l.pieces[o.piece][:o.idx]...)
}

// FlowTrace extracts the (time, a, b) series logged for one flow, where a
// and b are the first two 32-bit words of each record — by convention the
// window (or rate in Mbps) and the algorithm's alpha. This is the host
// side of the tracing used for Figure 5.
type TracePoint struct {
	At sim.Time
	A  uint32
	B  uint32
}

// FlowTrace returns the decoded trace for a flow.
func (l *Logger) FlowTrace(flow packet.FlowID) []TracePoint {
	var out []TracePoint
	for _, r := range l.Records() {
		if r.Flow != flow {
			continue
		}
		a, b, _, _ := cc.DecodeLogU32x4(r.Data)
		out = append(out, TracePoint{At: r.At, A: a, B: b})
	}
	return out
}
