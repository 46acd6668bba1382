// Package flowtab is the per-flow table every layer of the tester keeps its
// per-flow state in: the NIC's flow store, the switch pipeline's port and
// flow-rate registers, both receivers' receive state, and core's routing
// column and flow facts.
//
// A table holds what the test uses, not what the hardware could hold. Flow
// IDs are sparse — pattern flows start at 4096, flood flows sit far above
// the NIC's, and the BRAM bound (65,536+ flows, paper §8) is a check, not an
// allocation — so a table is a directory of fixed pages, each allocated on
// the first write to one of its flows.
package flowtab

import "marlin/internal/packet"

const (
	pageShift = 6
	// PageSize is the number of flows one page holds.
	PageSize = 1 << pageShift
)

// Table maps flow IDs to values of T, zero until written. Pages are never
// moved once allocated, so a pointer returned by Slot or Get addresses the
// same value for the table's lifetime, however far the directory grows
// later; the NIC's timer events, whose argument is the flow's slot, rely on
// it. The directory grows with the largest page touched. The zero Table is
// empty.
type Table[T any] struct {
	dir []*[PageSize]T
}

// Get returns flow's value, or nil when no flow in its page was ever
// written (including every ID past the directory). A nil read stands for
// the zero value; readers on a packet path use Get so they never allocate.
func (t *Table[T]) Get(flow packet.FlowID) *T {
	pi := uint(flow >> pageShift)
	if pi >= uint(len(t.dir)) {
		return nil
	}
	pg := t.dir[pi]
	if pg == nil {
		return nil
	}
	return &pg[flow&(PageSize-1)]
}

// Slot returns flow's value for writing, allocating its page, and growing
// the directory to reach it, on first use.
func (t *Table[T]) Slot(flow packet.FlowID) *T {
	pi := int(flow >> pageShift)
	if pi >= len(t.dir) {
		t.dir = append(t.dir, make([]*[PageSize]T, pi+1-len(t.dir))...)
	}
	pg := t.dir[pi]
	if pg == nil {
		pg = new([PageSize]T)
		t.dir[pi] = pg
	}
	return &pg[flow&(PageSize-1)]
}

// Pages reports how many pages the table has allocated.
func (t *Table[T]) Pages() int {
	n := 0
	for _, pg := range t.dir {
		if pg != nil {
			n++
		}
	}
	return n
}

// Range calls fn for every value in an allocated page, in flow order.
func (t *Table[T]) Range(fn func(flow packet.FlowID, v *T)) {
	for pi, pg := range t.dir {
		if pg == nil {
			continue
		}
		for i := range pg {
			fn(packet.FlowID(pi<<pageShift|i), &pg[i])
		}
	}
}
