package tofino

import "marlin/internal/packet"

// scheMeta is the metadata a SCHE packet deposits for the DATA generator:
// "each egress port in the switch has a dedicated queue that stores
// metadata for the DATA packets to be generated, such as flow id and
// packet sequence numbers" (§4.2).
type scheMeta struct {
	flow   packet.FlowID
	psn    uint32
	flags  packet.Flags
	sentAt int64 // sender timestamp, carried into the DATA packet
	port   int   // intended egress port (for misdelivery accounting)
}

// regQueue models the register-array queue of §4.2: a fixed array of depth
// entries with head and length registers. Hardware allows one simple
// register operation per packet, so there is no re-enqueue after dequeue;
// a SCHE arriving at a full array is dropped (a "false loss"). depth is
// that array's size and the only bound. The model's backing store is not
// the array: it is a ring grown to the queue's high-water mark (at most
// depth), so a port that never backs up holds a few entries, not 2,048.
type regQueue struct {
	depth  int
	slots  []scheMeta
	head   int
	length int

	drops uint64
}

// DefaultQueueDepth is the register-array size per port. Tofino register
// arrays are SRAM-bounded; 2048 entries per port is comfortably within the
// paper's reported 58/960 SRAM budget.
const DefaultQueueDepth = 2048

func newRegQueue(depth int) *regQueue {
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	return &regQueue{depth: depth}
}

// enqueue admits m, or counts a drop when the array is full.
func (q *regQueue) enqueue(m scheMeta) bool {
	if q.length == q.depth {
		q.drops++
		return false
	}
	if q.length == len(q.slots) {
		q.grow()
	}
	tail := q.head + q.length
	if tail >= len(q.slots) {
		tail -= len(q.slots)
	}
	q.slots[tail] = m
	q.length++
	return true
}

// grow doubles the backing ring, up to depth, unwrapping it as it copies.
func (q *regQueue) grow() {
	slots := make([]scheMeta, min(max(2*len(q.slots), 8), q.depth))
	k := copy(slots, q.slots[q.head:])
	copy(slots[k:], q.slots[:q.head])
	q.slots, q.head = slots, 0
}

// dequeue pops the oldest metadata; ok is false when empty.
func (q *regQueue) dequeue() (m scheMeta, ok bool) {
	if q.length == 0 {
		return scheMeta{}, false
	}
	m = q.slots[q.head]
	if q.head++; q.head == len(q.slots) {
		q.head = 0
	}
	q.length--
	return m, true
}

func (q *regQueue) len() int { return q.length }
