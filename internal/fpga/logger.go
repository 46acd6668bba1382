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

// Logger is the fine-grained logging module. It counts every record the CC
// module emits, so the §5.1 upload volume (Total, QDMAPackets) is known for
// the whole run, and retains only the records of traced flows (the host
// keeps what it asked for; NIC.TraceFlow names them). Retained records live
// in a ring of up to capacity (oldest evicted first), grown in pieces that
// are never copied (pieceRing: 32 MiB at the default capacity would
// otherwise be re-copied at every step on the way there).
type Logger struct {
	ring pieceRing[Record]

	total   uint64
	evicted uint64
}

// NewLogger creates a logger retaining up to capacity records of traced
// flows (0 = 1,048,576).
func NewLogger(capacity int) *Logger {
	if capacity <= 0 {
		capacity = 1 << 20
	}
	return &Logger{ring: pieceRing[Record]{capacity: capacity}}
}

// Count tallies one record of an untraced flow: it adds to the logged
// volume without entering the ring.
func (l *Logger) Count() { l.total++ }

// Record tallies one record of a traced flow and retains it.
func (l *Logger) Record(at sim.Time, flow packet.FlowID, data [16]byte) {
	l.total++
	if l.ring.push(Record{At: at, Flow: flow, Data: data}) {
		l.evicted++
	}
}

// Len reports retained records.
func (l *Logger) Len() int { return l.ring.n }

// Total reports all records ever logged, retained or not.
func (l *Logger) Total() uint64 { return l.total }

// Evicted reports retained records that left the ring at its bound.
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

// FlowTrace returns the decoded trace for a flow: nil for a flow never
// traced, whose records were counted but not retained. It reads the ring in
// place and allocates only the result.
func (l *Logger) FlowTrace(flow packet.FlowID) []TracePoint {
	n := 0
	l.ring.spans(func(rs []Record) {
		for i := range rs {
			if rs[i].Flow == flow {
				n++
			}
		}
	})
	if n == 0 {
		return nil
	}
	out := make([]TracePoint, 0, n)
	l.ring.spans(func(rs []Record) {
		for i := range rs {
			if r := &rs[i]; r.Flow == flow {
				a, b, _, _ := cc.DecodeLogU32x4(r.Data)
				out = append(out, TracePoint{At: r.At, A: a, B: b})
			}
		}
	})
	return out
}
