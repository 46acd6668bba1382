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
// records in a ring (oldest evicted first), grown in pieces that are never
// copied (pieceRing: 32 MiB at the default capacity would otherwise be
// re-copied at every step on the way there), and tracks how many QDMA upload
// packets the recorded volume corresponds to.
type Logger struct {
	ring pieceRing[Record]

	total   uint64
	evicted uint64
}

// NewLogger creates a logger retaining up to capacity records
// (0 = 1,048,576).
func NewLogger(capacity int) *Logger {
	if capacity <= 0 {
		capacity = 1 << 20
	}
	return &Logger{ring: pieceRing[Record]{capacity: capacity}}
}

// Record appends one entry.
func (l *Logger) Record(at sim.Time, flow packet.FlowID, data [16]byte) {
	l.total++
	if l.ring.push(Record{At: at, Flow: flow, Data: data}) {
		l.evicted++
	}
}

// Len reports retained records.
func (l *Logger) Len() int { return l.ring.n }

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
	return l.ring.appendTo(make([]Record, 0, l.ring.n))
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
