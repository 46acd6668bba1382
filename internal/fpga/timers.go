package fpga

import (
	"marlin/internal/cc"
	"marlin/internal/sim"
)

// timerRef names a block of the NIC's timer table: its index plus one, 0
// for none.
type timerRef uint32

const (
	timerSlabShift = 6
	// timerSlabLen is how many blocks a slab holds: 3,328 B a slab, in Go's
	// 3,456 B size class.
	timerSlabLen = 1 << timerSlabShift
)

// timerSlab is a run of timer blocks, each the handles of one flow's
// timers, plus each free block's free-list link.
type timerSlab struct {
	blocks [timerSlabLen][cc.NumTimers]sim.Handle
	next   [timerSlabLen]timerRef
}

// timerTable holds the handles of armed timers for the flows that have
// one: most flows of a large test are idle or between timers at any one
// time, so a block a flow in the flow word would be mostly empty. A flow
// takes a block when it arms its first timer and gives it back when its
// last one fires or is cancelled. The table grows by the slab, and a slab
// never moves.
type timerTable struct {
	slabs []*timerSlab
	free  timerRef // head of the free list
}

// take returns a free block, adding a slab when none is left.
func (t *timerTable) take() timerRef {
	if t.free == 0 {
		s := new(timerSlab)
		base := timerRef(len(t.slabs) << timerSlabShift)
		for i := timerSlabLen - 1; i >= 0; i-- {
			s.next[i] = t.free
			t.free = base + timerRef(i) + 1
		}
		t.slabs = append(t.slabs, s)
	}
	r := t.free
	s, i := t.at(r)
	t.free = s.next[i]
	return r
}

// give returns a block to the free list, clearing its handles.
func (t *timerTable) give(r timerRef) {
	s, i := t.at(r)
	s.blocks[i] = [cc.NumTimers]sim.Handle{}
	s.next[i] = t.free
	t.free = r
}

// handles returns a taken block's timer handles.
func (t *timerTable) handles(r timerRef) *[cc.NumTimers]sim.Handle {
	s, i := t.at(r)
	return &s.blocks[i]
}

func (t *timerTable) at(r timerRef) (*timerSlab, int) {
	k := int(r - 1)
	return t.slabs[k>>timerSlabShift], k & (timerSlabLen - 1)
}
