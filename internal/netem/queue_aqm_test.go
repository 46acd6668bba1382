package netem

import (
	"testing"

	"marlin/internal/aqm"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

// aqmQueue builds a queue managed by the given discipline spec, driven by
// a test-controlled clock.
func aqmQueue(t *testing.T, specSrc string, capacity int, now *sim.Time) *Queue {
	t.Helper()
	s, err := aqm.ParseSpec(specSrc)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(capacity, ECNConfig{})
	q.SetAQM(s.Build(q.Capacity(), sim.NewRand(7)), func() sim.Time { return *now })
	return q
}

func drainAll(q *Queue) int {
	n := 0
	for {
		p := q.Dequeue()
		if p == nil {
			return n
		}
		p.Release()
		n++
	}
}

// forcePI2 saturates a PI2 discipline's controller so every arrival is
// marked: hold a large standing delay across many update intervals.
func forcePI2(q *Queue, now *sim.Time, pool *packet.Pool) {
	for i := 0; i < 400; i++ {
		*now = now.Add(16 * sim.Millisecond)
		p := pool.NewData(1, uint32(i), 1500, *now)
		if !q.Enqueue(p) {
			p.Release()
		}
		if q.Len() > 8 {
			if d := q.Dequeue(); d != nil {
				d.Release()
			}
		}
		// Hold packets long enough that head delay stays far above target.
	}
}

// TestAQMMarkResolvesToCE: a discipline Mark verdict CE-marks ECN-capable
// packets and counts in both QueueStats.ECNMarks and AQMStats.Marks.
func TestAQMMarkResolvesToCE(t *testing.T) {
	var now sim.Time
	q := aqmQueue(t, "pi2", 1<<20, &now)
	forcePI2(q, &now, nil)
	st := q.Stats()
	as := q.AQMStats()
	if as == nil || as.Discipline != "pi2" {
		t.Fatalf("AQMStats = %+v", as)
	}
	if as.Marks == 0 {
		t.Fatal("saturated PI2 queue produced no CE marks")
	}
	if st.ECNMarks != as.Marks {
		t.Fatalf("ECNMarks %d != AQM marks %d", st.ECNMarks, as.Marks)
	}
	drainAll(q)
}

// TestAQMMarkFallsBackToDrop is the ecnoff-interplay regression at the
// queue level: with marking suppressed, a PI2 Mark verdict must become a
// drop (no CE anywhere), and lifting the suppression restores marking.
func TestAQMMarkFallsBackToDrop(t *testing.T) {
	pool := new(packet.Pool)
	var now sim.Time
	q := aqmQueue(t, "pi2", 1<<20, &now)
	forcePI2(q, &now, pool)
	drainAll(q)
	base := q.Stats()

	q.SuppressMarking(true)
	for i := 0; i < 50; i++ {
		now = now.Add(16 * sim.Millisecond)
		p := pool.NewData(9, uint32(i), 1500, now)
		if q.Enqueue(p) {
			if p.Flags.Has(packet.FlagCE) {
				t.Fatal("CE mark applied while marking suppressed")
			}
		} else {
			p.Release()
		}
	}
	mid := q.Stats()
	if mid.ECNMarks != base.ECNMarks {
		t.Fatalf("marks advanced under ecnoff: %d -> %d", base.ECNMarks, mid.ECNMarks)
	}
	if mid.Drops == base.Drops {
		t.Fatal("suppressed marks did not degrade to drops")
	}

	q.SuppressMarking(false)
	sawCE := false
	for i := 0; i < 50 && !sawCE; i++ {
		now = now.Add(16 * sim.Millisecond)
		p := pool.NewData(9, uint32(100+i), 1500, now)
		if q.Enqueue(p) {
			sawCE = p.Flags.Has(packet.FlagCE)
		} else {
			p.Release()
		}
	}
	if !sawCE {
		t.Fatal("marking did not resume after the ecnoff window closed")
	}
	drainAll(q)
	if live, _ := packet.Outstanding(pool); live != 0 {
		t.Fatalf("leaked %d packets through AQM drop paths", live)
	}
}

// TestAQMNotECTDegradesToDrop: Not-ECT traffic can never be CE-marked, so
// discipline marks become drops — the classic "ECN-incapable flows take
// the losses" behaviour.
func TestAQMNotECTDegradesToDrop(t *testing.T) {
	var now sim.Time
	q := aqmQueue(t, "pi2", 1<<20, &now)
	forcePI2(q, &now, nil)
	drainAll(q)
	base := q.Stats()
	for i := 0; i < 50; i++ {
		now = now.Add(16 * sim.Millisecond)
		p := packet.NewDataECT(3, uint32(i), 1500, now, packet.NotECT)
		if !q.Enqueue(p) {
			p.Release()
		}
	}
	st := q.Stats()
	if st.ECNMarks != base.ECNMarks {
		t.Fatal("Not-ECT packet was CE-marked")
	}
	if st.Drops == base.Drops {
		t.Fatal("Not-ECT arrivals under congestion were not dropped")
	}
	drainAll(q)
}

// TestAQMDualQueueBands: DualPI2 splits ECT(1) into the L4S band, keeps
// per-band accounting, and the time-shifted FIFO prefers the L4S head.
func TestAQMDualQueueBands(t *testing.T) {
	var now sim.Time
	q := aqmQueue(t, "dualpi2:shift=1ms", 1<<20, &now)

	classic := packet.NewDataECT(1, 0, 1000, 0, packet.ECT0)
	if !q.Enqueue(classic) {
		t.Fatal("classic enqueue refused")
	}
	now = now.Add(500 * sim.Microsecond) // within the shift
	l4s := packet.NewDataECT(2, 0, 1000, 0, packet.ECT1)
	if !q.Enqueue(l4s) {
		t.Fatal("l4s enqueue refused")
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	now = now.Add(100 * sim.Microsecond)
	first := q.Dequeue()
	if first == nil || first.ECT() != packet.ECT1 {
		t.Fatalf("time-shifted FIFO served %v first, want the ECT(1) packet", first.ECT())
	}
	second := q.Dequeue()
	if second == nil || second.ECT() != packet.ECT0 {
		t.Fatal("classic packet lost")
	}
	first.Release()
	second.Release()

	as := q.AQMStats()
	if as.BandDeqPackets[aqm.BandClassic] != 1 || as.BandDeqPackets[aqm.BandL4S] != 1 {
		t.Fatalf("band accounting = %v", as.BandDeqPackets)
	}
}

// TestAQMSojournPercentile: the per-band sojourn histogram reports a p99
// in the right magnitude for a known standing delay.
func TestAQMSojournPercentile(t *testing.T) {
	var now sim.Time
	q := aqmQueue(t, "codel:target=5ms,interval=100ms", 1<<20, &now)
	for i := 0; i < 100; i++ {
		p := packet.NewData(1, uint32(i), 1000, now)
		if !q.Enqueue(p) {
			t.Fatal("enqueue refused")
		}
		now = now.Add(10 * sim.Microsecond)
	}
	// Every packet waits ~2ms before delivery.
	now = now.Add(2 * sim.Millisecond)
	drainAll(q)
	p99 := q.AQMStats().SojournP99Us[0]
	if p99 < 1500 || p99 > 4500 {
		t.Fatalf("sojourn p99 = %vus, want ~2000-3000us", p99)
	}
}

// TestAQMCoDelHeadDrop: Not-ECT traffic under a persistently standing
// CoDel queue is head-dropped inside Dequeue, and the next deliverable
// packet comes out instead.
func TestAQMCoDelHeadDrop(t *testing.T) {
	pool := new(packet.Pool)
	var now sim.Time
	q := aqmQueue(t, "codel:target=1ms,interval=10ms", 1<<20, &now)
	for i := 0; i < 200; i++ {
		p := pool.NewDataECT(1, uint32(i), 1000, now, packet.NotECT)
		if !q.Enqueue(p) {
			p.Release()
		}
	}
	// Dequeue slowly with a standing 50ms+ sojourn: CoDel enters its
	// dropping state and sheds heads.
	delivered := 0
	for i := 0; i < 200; i++ {
		now = now.Add(5 * sim.Millisecond)
		p := q.Dequeue()
		if p == nil {
			break
		}
		if p.Flags.Has(packet.FlagCE) {
			t.Fatal("Not-ECT packet came out CE-marked")
		}
		delivered++
		p.Release()
	}
	st := q.Stats()
	if as := q.AQMStats(); as.Drops == 0 || st.Drops != as.Drops {
		t.Fatalf("head drops = %d (queue %d), want > 0 and equal", as.Drops, st.Drops)
	}
	if delivered+int(st.Drops) != 200 {
		t.Fatalf("conservation: delivered %d + drops %d != 200", delivered, st.Drops)
	}
	if live, _ := packet.Outstanding(pool); live != 0 {
		t.Fatalf("leaked %d packets in head-drop path", live)
	}
}

// fixedVerdict is a discipline that answers every arrival with enq and
// every departure with deq.
type fixedVerdict struct{ enq, deq aqm.Decision }

func (fixedVerdict) Name() string                         { return "fixed" }
func (fixedVerdict) Bands() int                           { return 1 }
func (fixedVerdict) Classify(*packet.Packet) int          { return 0 }
func (fixedVerdict) PickBand(aqm.QueueView, sim.Time) int { return 0 }
func (f fixedVerdict) OnEnqueue(*packet.Packet, int, aqm.QueueView, sim.Time) aqm.Decision {
	return f.enq
}
func (f fixedVerdict) OnDequeue(*packet.Packet, int, sim.Duration, aqm.QueueView, sim.Time) aqm.Decision {
	return f.deq
}

// TestAQMDropBytes: every discipline drop path counts the dropped packet's
// bytes, read before the packet is released: an enqueue Drop, a Mark that
// falls back to a drop (marking suppressed, or a Not-ECT packet), and a
// dequeue head drop (CoDel's).
func TestAQMDropBytes(t *testing.T) {
	pool := new(packet.Pool)
	for _, c := range []struct {
		name     string
		disc     fixedVerdict
		suppress bool
		ect      packet.ECT
	}{
		{"enqueue drop", fixedVerdict{enq: aqm.Drop}, false, packet.ECT0},
		{"mark under ecnoff", fixedVerdict{enq: aqm.Mark}, true, packet.ECT0},
		{"mark on Not-ECT", fixedVerdict{enq: aqm.Mark}, false, packet.NotECT},
		{"head drop", fixedVerdict{deq: aqm.Drop}, false, packet.ECT0},
	} {
		q := NewQueue(1<<20, ECNConfig{})
		q.SetAQM(c.disc, func() sim.Time { return 0 })
		q.SuppressMarking(c.suppress)
		var bytes uint64
		for i := 0; i < 5; i++ {
			p := pool.NewDataECT(1, uint32(i), 100+10*i, 0, c.ect)
			bytes += uint64(p.Size)
			if !q.Enqueue(p) {
				p.Release()
			}
		}
		if p := q.Dequeue(); p != nil {
			t.Errorf("%s: delivered PSN %d", c.name, p.PSN)
			p.Release()
		}
		st := q.Stats()
		if st.Drops != 5 || st.DropBytes != bytes || q.AQMStats().Drops != 5 {
			t.Errorf("%s: Drops %d, DropBytes %d, AQM drops %d; want 5, %d, 5",
				c.name, st.Drops, st.DropBytes, q.AQMStats().Drops, bytes)
		}
	}
	if live, _ := packet.Outstanding(pool); live != 0 {
		t.Fatalf("leaked %d packets through AQM drop paths", live)
	}
}

// TestAQMEnqueueZeroAlloc is the hot-path gate at the queue level: steady
// state enqueue+dequeue through a discipline must not allocate.
func TestAQMEnqueueZeroAlloc(t *testing.T) {
	for _, spec := range []string{"red", "pi2", "dualpi2"} {
		var now sim.Time
		q := aqmQueue(t, spec, 1<<20, &now)
		// Warm the band buffers past any append growth.
		for i := 0; i < 256; i++ {
			p := packet.NewDataECT(1, uint32(i), 1000, now, packet.ECT(i%3))
			if !q.Enqueue(p) {
				p.Release()
			}
		}
		drainAll(q)
		// One recycled packet, so the pool itself stays out of the
		// measurement: under no congestion every verdict is Pass and the
		// packet round-trips enqueue -> dequeue each iteration.
		p := packet.NewDataECT(1, 0, 1000, 0, packet.ECT0)
		i := 0
		allocs := testing.AllocsPerRun(500, func() {
			now = now.Add(10 * sim.Microsecond)
			p.SetECT(packet.ECT(i % 3))
			p.Flags &^= packet.FlagCE
			i++
			if q.Enqueue(p) {
				q.Dequeue()
			}
		})
		p.Release()
		if allocs != 0 {
			t.Errorf("%s: %v allocs/op through the AQM queue, want 0", spec, allocs)
		}
	}
}

// A fresh band queues its first firstSlots packets in its own slots: a
// drop-tail queue fills and drains without allocating, and the packet past
// them moves the band to an array of its own, order kept.
func TestBandFirstSlotsAllocateNothing(t *testing.T) {
	pkts := make([]*packet.Packet, firstSlots+1)
	for i := range pkts {
		pkts[i] = packet.NewData(1, uint32(i), 1000, 0)
	}
	qs := make([]Queue, 12)
	for i := range qs {
		qs[i] = newQueue(1<<20, ECNConfig{})
	}
	next := 0
	fill := func(n int) *Queue {
		q := &qs[next]
		next++
		for _, p := range pkts[:n] {
			if !q.Enqueue(p) {
				t.Fatal("queue refused a packet")
			}
		}
		return q
	}
	if a := testing.AllocsPerRun(10, func() {
		q := fill(firstSlots)
		for q.Dequeue() != nil {
		}
	}); a != 0 {
		t.Errorf("filling and draining a fresh band's %d slots made %v allocations, want 0", firstSlots, a)
	}
	q := fill(firstSlots + 1)
	for i, want := range pkts {
		if p := q.Dequeue(); p != want {
			t.Fatalf("packet %d out of a grown band is PSN %d, want %d", i, p.PSN, want.PSN)
		}
	}
	for _, p := range pkts {
		p.Release()
	}
}
