package tofino

import (
	"encoding/binary"
	"slices"
	"testing"

	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

// refReorder is one TCP flow's receive state as Module A kept it before its
// out-of-order set became runs: one entry per buffered PSN, psns[head:] in
// circular sequence order, each after expected and none twice. It is the
// reference the run-length set is checked against.
type refReorder struct {
	expected uint32
	psns     []uint32
	head     int
	ooo, dup uint64
}

// arrive takes one DATA arrival and returns the ACK number it answers with.
func (m *refReorder) arrive(psn uint32) uint32 {
	switch {
	case psn == m.expected:
		m.expected++
		for m.head < len(m.psns) && m.psns[m.head] == m.expected {
			m.head++
			m.expected++
		}
		if m.head == len(m.psns) {
			m.psns, m.head = m.psns[:0], 0
		}
	case seqAfter(psn, m.expected):
		m.ooo++
		i, dup := slices.BinarySearchFunc(m.psns[m.head:], psn, seqCmp)
		if !dup {
			m.psns = slices.Insert(m.psns, m.head+i, psn)
		}
	default:
		m.dup++
	}
	return m.expected
}

// reorderRig drives a TCP receiver and one reference per flow with the
// same arrivals and checks them against each other after every one.
type reorderRig struct {
	t    *testing.T
	recv *Receiver
	refs []refReorder
	ack  uint32 // the ACK number of the last response
}

func newReorderRig(t *testing.T, flows int, start uint32) *reorderRig {
	g := &reorderRig{t: t, refs: make([]refReorder, flows)}
	g.recv = newReceiver(sim.NewEngine(), TCPReceiver, 0, new(packet.Pool))
	g.recv.ConnectAck(0, netem.NodeFunc(func(p *packet.Packet) {
		g.ack = p.Ack
		p.Release()
	}))
	for f := range g.refs {
		g.refs[f].expected = start
		g.recv.flows.Slot(packet.FlowID(f)).expected = start
	}
	return g
}

// arrive delivers psn on flow f to both and reports the first disagreement.
func (g *reorderRig) arrive(f int, psn uint32) bool {
	g.t.Helper()
	r := g.recv
	r.onData(0, r.pool.NewData(packet.FlowID(f), psn, 1024, 0))
	m := &g.refs[f]
	want := m.arrive(psn)
	var ooo, dup uint64
	for i := range g.refs {
		ooo += g.refs[i].ooo
		dup += g.refs[i].dup
	}
	got := r.flows.Get(packet.FlowID(f)).expected
	if got != want || g.ack != want || r.oooRx != ooo || r.dupRx != dup {
		g.t.Errorf("flow %d PSN %d: expected %d, ACK %d, ooo %d, dup %d; the per-PSN set reads %d, %d, %d, %d",
			f, psn, got, g.ack, r.oooRx, r.dupRx, want, want, ooo, dup)
		return false
	}
	return true
}

// reset restarts flow f on both: its expected PSN goes back to 0.
func (g *reorderRig) reset(f int) {
	g.recv.Reset(packet.FlowID(f))
	m := &g.refs[f]
	m.expected, m.psns, m.head = 0, m.psns[:0], 0
}

// The run-length set acknowledges and counts exactly as the per-PSN set it
// replaced: three flows, starting 40 PSNs short of the 2^32 wrap, see
// holes that fill out of order, duplicates of buffered, acknowledged and
// future PSNs, far jumps and restarts mid-gap.
func TestReorderSetMatchesPerPSNSet(t *testing.T) {
	g := newReorderRig(t, 3, 1<<32-40)
	rng := sim.NewRand(11)
	var holes int
	for step := 0; step < 50_000; step++ {
		f := rng.Intn(3)
		exp := g.refs[f].expected
		var psn uint32
		switch r := rng.Intn(100); {
		case r < 1:
			g.reset(f)
			continue
		case r < 2: // far ahead, beyond half the sequence space too
			psn = exp + uint32(rng.Uint64())
		case r < 15: // behind: acknowledged already
			psn = exp - 1 - uint32(rng.Intn(16))
		case r < 70: // a hole ahead
			psn = exp + 1 + uint32(rng.Intn(40))
			holes++
		default: // the next in order
			psn = exp
		}
		if !g.arrive(f, psn) {
			return
		}
	}
	if g.recv.oooRx < 10_000 || g.recv.dupRx < 5_000 || holes == 0 {
		t.Fatalf("the stream exercised too little: %d ooo, %d dup", g.recv.oooRx, g.recv.dupRx)
	}
}

// FuzzReorderSet feeds the run-length set and the per-PSN reference the
// same arrivals: the first four bytes place both flows' expected PSN
// (0xffffffe0 puts the window across the 2^32 wrap), then each byte pair
// is one step. The first byte's low bit picks the flow and its top bits
// the kind: a restart (0xfe, 0xff), a far jump (0xfc, 0xfd: the second
// byte is the top of the offset), else an arrival at expected plus the
// second byte read signed, so holes, fills and duplicates all occur.
func FuzzReorderSet(f *testing.F) {
	f.Add([]byte{0xe0, 0xff, 0xff, 0xff, 0, 2, 0, 4, 0, 3, 0, 1, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 5, 1, 9, 1, 7, 1, 6, 0xfe, 0, 1, 0, 1, 8})
	f.Add([]byte{0, 0, 0, 0x80, 0, 1, 0xfc, 0x80, 0, 0, 0, 0xff, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		g := newReorderRig(t, 2, binary.LittleEndian.Uint32(data))
		for ops := data[4:]; len(ops) >= 2; ops = ops[2:] {
			fl, arg := int(ops[0]&1), ops[1]
			exp := g.refs[fl].expected
			switch ops[0] >> 1 {
			case 0x7f:
				g.reset(fl)
				continue
			case 0x7e:
				if !g.arrive(fl, exp+uint32(arg)<<24) {
					return
				}
			default:
				if !g.arrive(fl, exp+uint32(int32(int8(arg)))) {
					return
				}
			}
		}
	})
}
