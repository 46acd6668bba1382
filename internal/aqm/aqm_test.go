package aqm

import (
	"math"
	"testing"

	"marlin/internal/packet"
	"marlin/internal/sim"
)

// view builds a single-band snapshot with the given backlog and head age.
func view(bytes, packets int, headAt sim.Time) QueueView {
	v := QueueView{Bytes: bytes, Packets: packets, Capacity: 256 << 10}
	v.BandBytes[0], v.BandPackets[0], v.HeadEnqAt[0] = bytes, packets, headAt
	return v
}

func TestHeadDelay(t *testing.T) {
	v := view(3000, 2, sim.Time(5*sim.Millisecond))
	if got := v.HeadDelay(0, sim.Time(8*sim.Millisecond)); got != 3*sim.Millisecond {
		t.Fatalf("HeadDelay = %v, want 3ms", got)
	}
	empty := view(0, 0, 0)
	if got := empty.HeadDelay(0, sim.Time(sim.Second)); got != 0 {
		t.Fatalf("HeadDelay of empty band = %v, want 0", got)
	}
}

func TestDecisionString(t *testing.T) {
	for d, want := range map[Decision]string{Pass: "pass", Mark: "mark", Drop: "drop"} {
		if d.String() != want {
			t.Errorf("Decision(%d).String() = %q, want %q", d, d.String(), want)
		}
	}
}

// TestREDEWMA pins the average update rule: avg += w·(backlog − avg), and
// the threshold behaviour around it.
func TestREDEWMA(t *testing.T) {
	s, err := ParseSpec("red:min=30000,max=90000,maxp=0.1,w=0.25")
	if err != nil {
		t.Fatal(err)
	}
	r := s.Build(256<<10, sim.NewRand(1)).(*RED)

	cases := []struct {
		backlog int
		wantAvg float64
	}{
		{8000, 2000}, // 0 + 0.25·8000
		{8000, 3500}, // 2000 + 0.25·6000
		{0, 2625},    // decays toward empty
		{20000, 6968.75},
	}
	now := sim.Time(0)
	for i, tc := range cases {
		d := r.OnEnqueue(nil, 0, view(tc.backlog, tc.backlog/1000, 0), now)
		if d != Pass {
			t.Fatalf("case %d: below min threshold yet %v", i, d)
		}
		if math.Abs(r.Avg()-tc.wantAvg) > 1e-9 {
			t.Fatalf("case %d: avg = %v, want %v", i, r.Avg(), tc.wantAvg)
		}
		now = now.Add(sim.Microsecond)
	}

	// Saturate the EWMA far above max: every arrival is marked.
	for i := 0; i < 20; i++ {
		r.OnEnqueue(nil, 0, view(200<<10, 200, 0), now)
	}
	if d := r.OnEnqueue(nil, 0, view(200<<10, 200, 0), now); d != Mark {
		t.Fatalf("above max threshold: %v, want mark", d)
	}
}

// TestREDUniformSpread checks the probabilistic region marks at roughly
// maxP·(avg−min)/(max−min) and that the decision stream is deterministic
// for a fixed seed.
func TestREDUniformSpread(t *testing.T) {
	spec := "red:min=10000,max=110000,maxp=0.2,w=0.5"
	run := func(seed uint64) (marks int, firstMark int) {
		s, _ := ParseSpec(spec)
		r := s.Build(256<<10, sim.NewRand(seed)).(*RED)
		firstMark = -1
		for i := 0; i < 2000; i++ {
			// Hold the instantaneous backlog at mid-ramp: pb = 0.1.
			if r.OnEnqueue(nil, 0, view(60000, 60, 0), sim.Time(i)*sim.Time(sim.Microsecond)) == Mark {
				marks++
				if firstMark < 0 {
					firstMark = i
				}
			}
		}
		return marks, firstMark
	}
	m1, f1 := run(7)
	m2, f2 := run(7)
	if m1 != m2 || f1 != f2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", m1, f1, m2, f2)
	}
	// With pb ≈ 0.1 and uniform spread, expect a mark roughly every 10
	// packets; allow a wide deterministic band.
	if m1 < 150 || m1 > 550 {
		t.Fatalf("marks = %d over 2000 arrivals, want ~200", m1)
	}
}

// TestPIEControllerStep pins one controller update: with p tiny the RFC
// ladder divides the raw delta by 2048.
func TestPIEControllerStep(t *testing.T) {
	s, err := ParseSpec("pie:target=15ms,tupdate=15ms,alpha=0.125,beta=1.25")
	if err != nil {
		t.Fatal(err)
	}
	q := s.Build(256<<10, sim.NewRand(1)).(*PIE)

	// First touch only arms the update timer.
	q.OnDequeue(nil, 0, 0, view(0, 0, 0), 0)
	if q.P() != 0 {
		t.Fatalf("p after arming = %v, want 0", q.P())
	}
	// One interval later with 40ms of standing delay: raw delta =
	// 0.125·(0.040−0.015) + 1.25·(0.040−0) = 0.053125, ladder /2048.
	head := sim.Time(0)
	now := sim.Time(15 * sim.Millisecond)
	q.OnDequeue(nil, 0, 0, view(90000, 60, head-sim.Time(25*sim.Millisecond)), now)
	want := 0.053125 / 2048
	if math.Abs(q.P()-want) > 1e-12 {
		t.Fatalf("p after one step = %v, want %v", q.P(), want)
	}
}

// TestPIEDropsAboveECNThreshold: once p crosses ecnth the verdict is Drop
// (even ECN-capable flows lose packets), below it Mark.
func TestPIEDropsAboveECNThreshold(t *testing.T) {
	s, _ := ParseSpec("pie")
	q := s.Build(256<<10, sim.NewRand(3)).(*PIE)
	q.p = 0.05
	q.started = true
	q.next = sim.Forever // freeze the controller
	sawMark := false
	for i := 0; i < 200 && !sawMark; i++ {
		sawMark = q.OnEnqueue(nil, 0, view(50000, 40, 0), 0) == Mark
	}
	if !sawMark {
		t.Fatal("p=0.05 never produced a Mark in 200 arrivals")
	}
	q.p = 0.5
	sawDrop := false
	for i := 0; i < 200 && !sawDrop; i++ {
		d := q.OnEnqueue(nil, 0, view(50000, 40, 0), 0)
		if d == Mark {
			t.Fatal("p above ecnth must Drop, got Mark")
		}
		sawDrop = d == Drop
	}
	if !sawDrop {
		t.Fatal("p=0.5 never produced a Drop in 200 arrivals")
	}
}

// TestPI2ControllerStep pins the linear (ladder-free) update and the
// squared application probability.
func TestPI2ControllerStep(t *testing.T) {
	s, err := ParseSpec("pi2:target=15ms,tupdate=16ms,alpha=0.3125,beta=3.125")
	if err != nil {
		t.Fatal(err)
	}
	q := s.Build(256<<10, sim.NewRand(1)).(*PI2)
	q.OnDequeue(nil, 0, 0, view(0, 0, 0), 0)
	// 47ms standing delay: delta = 0.3125·0.032 + 3.125·0.047 = 0.156875,
	// no ladder.
	now := sim.Time(16 * sim.Millisecond)
	q.OnDequeue(nil, 0, 0, view(90000, 60, now-sim.Time(47*sim.Millisecond)), now)
	if math.Abs(q.PPrime()-0.156875) > 1e-12 {
		t.Fatalf("p' = %v, want 0.156875", q.PPrime())
	}
	// Application probability is p'²: with p' ≈ 0.157, expect ~2.5% marks.
	marks := 0
	q.core.next = sim.Forever
	for i := 0; i < 4000; i++ {
		if q.OnEnqueue(nil, 0, view(90000, 60, 0), now) == Mark {
			marks++
		}
	}
	if marks < 40 || marks > 250 {
		t.Fatalf("marks = %d over 4000 arrivals, want ~98 (p'²)", marks)
	}
}

// TestCoDelLadder drives sojourn above target and checks the √count
// signalling cadence.
func TestCoDelLadder(t *testing.T) {
	s, err := ParseSpec("codel:target=5ms,interval=100ms")
	if err != nil {
		t.Fatal(err)
	}
	c := s.Build(256<<10, sim.NewRand(1)).(*CoDel)

	const sojourn = 20 * sim.Millisecond
	v := view(60000, 40, 0)
	// Below a full interval above target: no signal yet.
	if d := c.OnDequeue(nil, 0, sojourn, v, sim.Time(0)); d != Pass {
		t.Fatalf("first above-target dequeue: %v, want pass", d)
	}
	if d := c.OnDequeue(nil, 0, sojourn, v, sim.Time(50*sim.Millisecond)); d != Pass {
		t.Fatalf("half an interval in: %v, want pass", d)
	}
	// A full interval above target: enter dropping, first signal now.
	if d := c.OnDequeue(nil, 0, sojourn, v, sim.Time(100*sim.Millisecond)); d != Mark {
		t.Fatalf("interval elapsed: %v, want mark", d)
	}
	if dropping, count := c.State(); !dropping || count != 1 {
		t.Fatalf("state after entry = (%v,%d), want (true,1)", dropping, count)
	}
	// Next signal is interval/√2 after the second signal time: walk
	// dequeues at 1ms spacing and collect signal times.
	var signals []sim.Time
	for ms := 101; ms <= 400 && len(signals) < 3; ms++ {
		now := sim.Time(ms) * sim.Time(sim.Millisecond)
		if c.OnDequeue(nil, 0, sojourn, v, now) == Mark {
			signals = append(signals, now)
		}
	}
	if len(signals) < 3 {
		t.Fatalf("only %d ladder signals in 300ms", len(signals))
	}
	// Gaps should shrink: interval/√1=100ms to next, then /√2≈71ms, /√3≈58.
	g1 := signals[1].Sub(signals[0])
	g2 := signals[2].Sub(signals[1])
	if g1 <= g2 {
		t.Fatalf("ladder not tightening: gaps %v then %v", g1, g2)
	}
	// Sojourn back under target exits the dropping state.
	if d := c.OnDequeue(nil, 0, sim.Millisecond, v, signals[2].Add(sim.Millisecond)); d != Pass {
		t.Fatal("under-target dequeue still signalled")
	}
	if dropping, _ := c.State(); dropping {
		t.Fatal("still dropping after sojourn recovered")
	}
}

func dualView(cBytes, cPkts int, cHead sim.Time, lBytes, lPkts int, lHead sim.Time) QueueView {
	v := QueueView{Bytes: cBytes + lBytes, Packets: cPkts + lPkts, Capacity: 256 << 10}
	v.BandBytes[BandClassic], v.BandPackets[BandClassic], v.HeadEnqAt[BandClassic] = cBytes, cPkts, cHead
	v.BandBytes[BandL4S], v.BandPackets[BandL4S], v.HeadEnqAt[BandL4S] = lBytes, lPkts, lHead
	return v
}

func TestDualPI2Classify(t *testing.T) {
	s, _ := ParseSpec("dualpi2")
	q := s.Build(256<<10, sim.NewRand(1)).(*DualPI2)
	cases := []struct {
		ect  packet.ECT
		ce   bool
		want int
	}{
		{packet.NotECT, false, BandClassic},
		{packet.ECT0, false, BandClassic},
		{packet.ECT1, false, BandL4S},
		{packet.ECT0, true, BandL4S}, // CE-marked upstream rides the fast lane
	}
	for _, tc := range cases {
		p := packet.NewDataECT(1, 0, 1024, 0, tc.ect)
		if tc.ce {
			p.Flags |= packet.FlagCE
		}
		if got := q.Classify(p); got != tc.want {
			t.Errorf("Classify(%v,ce=%v) = %d, want %d", tc.ect, tc.ce, got, tc.want)
		}
		p.Release()
	}
}

// TestDualPI2Coupling forces a base probability and checks the L4S mark
// rate tracks k·p' while classic arrivals see only p'².
func TestDualPI2Coupling(t *testing.T) {
	s, err := ParseSpec("dualpi2:coupling=2")
	if err != nil {
		t.Fatal(err)
	}
	q := s.Build(256<<10, sim.NewRand(9)).(*DualPI2)
	q.core.started = true
	q.core.next = sim.Forever // freeze the controller at a forced p'
	q.core.pPrime = 0.1

	const n = 5000
	l4sMarks, classicMarks := 0, 0
	v := dualView(30000, 20, 0, 3000, 2, 0)
	for i := 0; i < n; i++ {
		if q.OnDequeue(nil, BandL4S, 0, v, 0) == Mark {
			l4sMarks++
		}
		if q.OnEnqueue(nil, BandClassic, v, 0) == Mark {
			classicMarks++
		}
	}
	// L4S: k·p' = 0.2 → ~1000 marks; classic: p'² = 0.01 → ~50 marks.
	if l4sMarks < 800 || l4sMarks > 1200 {
		t.Fatalf("l4s marks = %d / %d, want ~%d", l4sMarks, n, n/5)
	}
	if classicMarks < 20 || classicMarks > 110 {
		t.Fatalf("classic marks = %d / %d, want ~%d", classicMarks, n, n/100)
	}
	if l4sMarks < 4*classicMarks {
		t.Fatalf("coupling inverted: l4s %d vs classic %d", l4sMarks, classicMarks)
	}
}

// TestDualPI2StepMark: sojourn beyond the step threshold marks
// unconditionally, below it only the coupled probability applies.
func TestDualPI2StepMark(t *testing.T) {
	s, _ := ParseSpec("dualpi2:step=1ms")
	q := s.Build(256<<10, sim.NewRand(1)).(*DualPI2)
	q.core.started = true
	q.core.next = sim.Forever
	v := dualView(0, 0, 0, 3000, 2, 0)
	if d := q.OnDequeue(nil, BandL4S, 2*sim.Millisecond, v, 0); d != Mark {
		t.Fatalf("sojourn over step: %v, want mark", d)
	}
	// p'=0: under the step threshold nothing marks.
	for i := 0; i < 100; i++ {
		if d := q.OnDequeue(nil, BandL4S, sim.Microsecond, v, 0); d != Pass {
			t.Fatalf("p'=0 under step marked: %v", d)
		}
	}
}

// TestDualPI2PickBand pins the time-shifted FIFO: L4S wins unless the
// classic head is more than Shift older.
func TestDualPI2PickBand(t *testing.T) {
	s, _ := ParseSpec("dualpi2:shift=1ms")
	q := s.Build(256<<10, sim.NewRand(1)).(*DualPI2)
	now := sim.Time(10 * sim.Millisecond)

	onlyClassic := dualView(1500, 1, sim.Time(sim.Millisecond), 0, 0, 0)
	if q.PickBand(onlyClassic, now) != BandClassic {
		t.Fatal("empty L4S band must fall back to classic")
	}
	onlyL4S := dualView(0, 0, 0, 1500, 1, sim.Time(sim.Millisecond))
	if q.PickBand(onlyL4S, now) != BandL4S {
		t.Fatal("empty classic band must pick L4S")
	}
	// Heads 0.5ms apart (classic older): inside the shift, L4S wins.
	close := dualView(1500, 1, sim.Time(4*sim.Millisecond), 1500, 1, sim.Time(4500*sim.Microsecond))
	if q.PickBand(close, now) != BandL4S {
		t.Fatal("classic only 0.5ms older must not beat the shift")
	}
	// Classic head 2ms older than L4S: beyond the shift, classic wins.
	far := dualView(1500, 1, sim.Time(2*sim.Millisecond), 1500, 1, sim.Time(4*sim.Millisecond))
	if q.PickBand(far, now) != BandClassic {
		t.Fatal("classic 2ms older must win past the shift")
	}
}

// TestDisciplineDeterminism runs every discipline twice over an identical
// synthetic event tape and requires byte-identical decision sequences —
// the property the fleet differential test checks end to end.
func TestDisciplineDeterminism(t *testing.T) {
	specs := []string{"red", "pie", "codel", "pi2", "dualpi2"}
	for _, name := range specs {
		tape := func(seed uint64) []Decision {
			s, err := ParseSpec(name)
			if err != nil {
				t.Fatal(err)
			}
			a := s.Build(64<<10, sim.NewRand(seed))
			drive := sim.NewRand(42) // event tape generator, separate stream
			var out []Decision
			var now sim.Time
			for i := 0; i < 3000; i++ {
				now = now.Add(sim.Duration(drive.Intn(int(50 * sim.Microsecond))))
				backlog := drive.Intn(64 << 10)
				age := sim.Duration(drive.Intn(int(30 * sim.Millisecond)))
				v := dualView(backlog, backlog/1000+1, now-sim.Time(age), backlog/4, backlog/4000+1, now-sim.Time(age/2))
				if drive.Intn(2) == 0 {
					out = append(out, a.OnEnqueue(nil, i%a.Bands(), v, now))
				} else {
					out = append(out, a.OnDequeue(nil, i%a.Bands(), age, v, now))
				}
			}
			return out
		}
		a, b := tape(5), tape(5)
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: decision %d diverged: %v vs %v", name, i, a[i], b[i])
				break
			}
		}
	}
}

// TestEnqueueHotPathAllocs is the 0 allocs/op gate on the enqueue hot path
// for every discipline: every emulated egress port with an AQM pays it per
// packet.
func TestEnqueueHotPathAllocs(t *testing.T) {
	for _, name := range []string{"red", "pie", "codel", "pi2", "dualpi2"} {
		s, err := ParseSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		a := s.Build(64<<10, sim.NewRand(1))
		p := packet.NewDataECT(1, 0, 1500, 0, packet.ECT1)
		v := dualView(40000, 30, 0, 4000, 3, 0)
		var now sim.Time
		allocs := testing.AllocsPerRun(200, func() {
			now = now.Add(sim.Microsecond)
			band := a.Classify(p)
			a.OnEnqueue(p, band, v, now)
			a.OnDequeue(p, band, 10*sim.Microsecond, v, now)
		})
		p.Release()
		if allocs != 0 {
			t.Errorf("%s: %v allocs/op on the hot path, want 0", name, allocs)
		}
	}
}
