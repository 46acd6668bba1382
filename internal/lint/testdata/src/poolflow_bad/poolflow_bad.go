// Package poolflow_bad exercises the poolflow check with ownership
// violations split across function boundaries. No block contains both the
// Release and the offending use, so a block-local scan sees none of them;
// they are exactly what the interprocedural summaries exist to catch (the
// fixture test asserts poolflow reports all five).
package poolflow_bad

import "marlin/internal/packet"

// consume Releases its argument on every path, so its summary says callers
// lose ownership at the call.
func consume(p *packet.Packet) {
	p.Release()
}

// UseAfterConsume reads a field after the callee returned the packet to the
// pool. There is no Release in this block: only the callee's summary shows it.
func UseAfterConsume() int {
	p := packet.Get()
	consume(p)
	return p.Size
}

// DoubleConsume is a double Release split across two calls.
func DoubleConsume() {
	p := packet.Get()
	consume(p)
	consume(p)
}

type sink struct{}

func (s *sink) Receive(p *packet.Packet) {
	p.Release()
}

// UseAfterHandoff touches a packet after Receive took ownership of it.
func UseAfterHandoff(s *sink) uint32 {
	p := packet.Get()
	s.Receive(p)
	return p.PSN
}

// Leak abandons a pooled packet on the early-return path.
func Leak(n int) int {
	p := packet.Get()
	if n < 0 {
		return -1
	}
	consume(p)
	return n
}

// LeakFromPool abandons a packet drawn from a caller's Pool on the
// early-return path.
func LeakFromPool(q *packet.Pool, n int) int {
	p := q.NewSche(1, 0, 0, 0)
	if n < 0 {
		return -1
	}
	consume(p)
	return n
}
