package tofino

import (
	"math/rand"
	"testing"
	"unsafe"

	"marlin/internal/netem"
	"marlin/internal/packet"
)

// The register queue's backing ring grows to the high-water mark, never past
// the depth, and keeps FIFO order when it grows while its head is wrapped.
func TestRegQueueGrowsWithWrappedHead(t *testing.T) {
	q := newRegQueue(0)
	if q.depth != DefaultQueueDepth || len(q.slots) != 0 {
		t.Fatalf("fresh queue: depth %d, %d slots backed", q.depth, len(q.slots))
	}
	psn, next := uint32(0), uint32(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			if !q.enqueue(scheMeta{psn: psn}) {
				t.Fatalf("enqueue of psn %d refused at length %d", psn, q.len())
			}
			psn++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			m, ok := q.dequeue()
			if !ok || m.psn != next {
				t.Fatalf("dequeue = %d, %v; want psn %d", m.psn, ok, next)
			}
			next++
		}
	}
	push(6)
	pop(4)
	push(6) // eight held in eight slots, the head at slot 4
	if len(q.slots) != 8 || q.head != 4 {
		t.Fatalf("before growth: %d slots, head %d; want 8 and a wrapped head at 4", len(q.slots), q.head)
	}
	push(1) // grows while wrapped
	if len(q.slots) != 16 {
		t.Fatalf("after growth: %d slots, want 16", len(q.slots))
	}
	pop(5)
	push(20)
	pop(q.len())

	// Against a plain FIFO model at a depth that is not a power of two.
	r := rand.New(rand.NewSource(1))
	q = newRegQueue(100)
	var model []uint32
	high := 0
	for i := 0; i < 20000; i++ {
		if r.Intn(7) < 4 {
			ok := q.enqueue(scheMeta{psn: uint32(i)})
			if ok != (len(model) < 100) {
				t.Fatalf("op %d: enqueue = %v at length %d of depth 100", i, ok, len(model))
			}
			if ok {
				model = append(model, uint32(i))
			}
		} else {
			m, ok := q.dequeue()
			if ok != (len(model) > 0) || ok && m.psn != model[0] {
				t.Fatalf("op %d: dequeue = %d, %v; model %v", i, m.psn, ok, model[:min(len(model), 3)])
			}
			if ok {
				model = model[1:]
			}
		}
		high = max(high, len(model))
		if len(q.slots) > 100 || len(q.slots) > max(8, 2*high) {
			t.Fatalf("op %d: %d slots backed for a high-water mark of %d at depth 100", i, len(q.slots), high)
		}
	}
	if high != 100 || q.drops == 0 {
		t.Fatalf("the model run never filled the queue (high-water %d, drops %d)", high, q.drops)
	}
}

// The depth is the bound, exactly: with the first SCHE of a burst sent at
// once (its TEMP slot is free), depth more wait in the register array and
// the next is the one false loss, at depth 1, 100 and the default 2,048.
func TestRegQueueDropsExactlyAtDepth(t *testing.T) {
	for _, depth := range []int{1, 100, DefaultQueueDepth} {
		eng, pl := buildPipeline(t, Config{QueueDepth: depth})
		var out []uint32
		pl.ConnectDataPort(0, netem.NodeFunc(func(p *packet.Packet) {
			out = append(out, p.PSN)
			p.Release()
		}))
		if err := pl.BindFlow(1, 0); err != nil {
			t.Fatal(err)
		}
		in := pl.ScheIn()
		for i := 0; i < depth+2; i++ {
			in.Receive(sche(1, uint32(i), 0))
		}
		pc, c := pl.PortCounters(0), pl.Counters()
		if pc.QueueLen != depth || pc.ScheDrops != 1 || c.ScheDrops != 1 || pc.ScheRx != uint64(depth+2) {
			t.Errorf("depth %d: QueueLen %d, port drops %d, drops %d, ScheRx %d; want %d, 1, 1, %d",
				depth, pc.QueueLen, pc.ScheDrops, c.ScheDrops, pc.ScheRx, depth, depth+2)
		}
		if n := len(pl.queues[0].slots); n > depth {
			t.Errorf("depth %d: %d slots backed", depth, n)
		}
		eng.RunAll()
		if len(out) != depth+1 || pl.PortCounters(0).QueueLen != 0 {
			t.Fatalf("depth %d: %d DATA packets, queue length %d after draining; want %d, 0",
				depth, len(out), pl.PortCounters(0).QueueLen, depth+1)
		}
		for i, psn := range out {
			if psn != uint32(i) {
				t.Fatalf("depth %d: DATA %d carries psn %d", depth, i, psn)
			}
		}
	}
}

// A pipeline holds what its traffic used: no register-queue entries on a
// port that never queued, and one page of per-flow state per page of flows
// bound. An unbound flow reads as it always has: its INFO packets report
// port 0 and its flow-rate register 0, without allocating.
func TestPipelineSizedByUse(t *testing.T) {
	_, pl := buildPipeline(t, Config{})
	for i, q := range pl.queues {
		if len(q.slots) != 0 {
			t.Errorf("port %d: %d register-queue slots backed before any SCHE", i, len(q.slots))
		}
	}
	var infos []*packet.Packet
	pl.ConnectInfo(netem.NodeFunc(func(p *packet.Packet) { infos = append(infos, p) }))
	if err := pl.BindFlow(4096, 3); err != nil {
		t.Fatal(err)
	}
	if got := pl.flows.Pages(); got != 1 {
		t.Errorf("binding flow 4096 allocated %d pages, want 1", got)
	}
	for _, fl := range []packet.FlowID{4096, 4097, 0, 1 << 20} {
		pl.ResetFlow(fl)
		pl.AckIn().Receive(&packet.Packet{Type: packet.ACK, Flow: fl, Size: packet.ControlSize})
	}
	for i, want := range []int{3, 0, 0, 0} {
		if infos[i].Port != want {
			t.Errorf("INFO for flow %d reports port %d, want %d", infos[i].Flow, infos[i].Port, want)
		}
	}
	if pl.FlowTxBytes(4097) != 0 || pl.FlowTxBytes(1<<20) != 0 {
		t.Error("an unbound flow reads a non-zero flow-rate register")
	}
	if got := pl.flows.Pages(); got != 1 {
		t.Errorf("reads and resets of unbound flows allocated: %d pages held", got)
	}
}

// The receive row keeps the expected PSN, the index of its out-of-order set
// and its bools in one word before the CNP time: 24 B a flow.
func TestReceiveRowSize(t *testing.T) {
	if got := unsafe.Sizeof(rxFlow{}); got > 24 {
		t.Errorf("rxFlow is %d B, want <= 24", got)
	}
}
