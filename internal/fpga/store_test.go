package fpga

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"marlin/internal/cc"
	"marlin/internal/flowtab"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/race"
	"marlin/internal/sim"
)

// Tests of the three rules the NIC's per-packet path keeps: event records
// are typed and pooled (nothing allocates once warm), the flow store holds
// pages only for flows started (with the BRAM bound checked at StartFlow),
// and every FIFO is bounded by its occupancy.

// loopTraced is how many flow IDs, from 0, a loop NIC traces: every flow
// the tests below start, so their records fill the ring and retention is
// measured, not counting alone.
const loopTraced = 16

// newLoopNIC builds a one-port NIC whose SCHE output returns at once as the
// INFO acknowledging it. The SCHE packet itself is rewritten in place, so
// the loop adds no allocation of its own; ack=false sinks SCHE instead (an
// open loop: no INFO ever arrives).
func newLoopNIC(tb testing.TB, algo string, ack bool, mutate func(*Config)) (*sim.Engine, *NIC) {
	tb.Helper()
	eng := sim.NewEngine()
	alg, err := cc.New(algo)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := Config{
		Ports:       1,
		Algorithm:   alg,
		Params:      cc.DefaultParams(100*sim.Gbps, 1024),
		TXTimerPPS:  11.97e6,
		LogCapacity: 64, // a full ring of traced flows: retention stays on and stops growing
		GoBackN:     alg.Mode() == cc.RateMode,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	nic, err := NewNIC(eng, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for f := packet.FlowID(0); f < loopTraced; f++ {
		if err := nic.TraceFlow(f); err != nil {
			tb.Fatal(err)
		}
	}
	info := nic.InfoIn()
	nic.ConnectSche(netem.NodeFunc(func(p *packet.Packet) {
		if !ack {
			p.Release()
			return
		}
		p.Type, p.Ack, p.Flags = packet.INFO, p.PSN+1, 0
		info.Receive(p)
	}))
	return eng, nic
}

// runAllocs reports the allocations of one eng.Run(step) slice, averaged
// over runs. Under the race detector it skips the test: that runtime
// allocates, and its sync.Pool sheds a share of the packets put back.
func runAllocs(t *testing.T, eng *sim.Engine, runs int, step sim.Duration) float64 {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	return testing.AllocsPerRun(runs, func() { eng.Run(eng.Now().Add(step)) })
}

// newSlowPathNIC is a loop NIC running ACK-clocked DCTCP with the Slow Path
// on: flows 0..flows-1 on port 0, every one traced into a log ring of logCap
// records, run for warm so that every flow has cycled and the RTT ring, the
// log ring and the event pools are full. initCwnd 0 keeps the default.
func newSlowPathNIC(tb testing.TB, flows, logCap int, initCwnd uint32, warm sim.Duration) (*sim.Engine, *NIC) {
	tb.Helper()
	eng, nic := newLoopNIC(tb, "dctcp", true, func(c *Config) {
		if initCwnd != 0 {
			c.Params.InitCwnd = initCwnd
		}
		c.LogCapacity = logCap
	})
	if !nic.Params().UseSlowPath {
		tb.Fatal("DefaultParams no longer routes DCTCP's alpha through the Slow Path")
	}
	for f := packet.FlowID(0); f < packet.FlowID(flows); f++ {
		if err := nic.TraceFlow(f); err != nil {
			tb.Fatal(err)
		}
		if err := nic.StartFlow(f, 0, 0); err != nil {
			tb.Fatal(err)
		}
	}
	eng.Run(sim.Time(warm))
	if l := nic.Logger(); l.Len() != logCap || l.Evicted() == 0 {
		tb.Fatalf("log ring holds %d records, %d evicted: retention is not being measured", l.Len(), l.Evicted())
	}
	return eng, nic
}

// A DCTCP ACK that closes an observation window posts a Slow Path event.
// Neither the post nor the execution may allocate: with a few flows and one
// packet in flight each (every ACK closes a window), and at the flow density
// of the paper's headline point (65,532 flows over 12 ports is 5,461 a
// port), every one of them traced into a larger log ring.
func TestSlowPathWindowEndAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		flows, logCap int
		initCwnd      uint32
		warm          sim.Duration
	}{
		{flows: 8, logCap: 64, initCwnd: 1, warm: sim.Millisecond},
		{flows: 5461, logCap: 1 << 10, warm: 2 * sim.Millisecond},
	} {
		t.Run(fmt.Sprintf("%d_flows", tc.flows), func(t *testing.T) {
			eng, nic := newSlowPathNIC(t, tc.flows, tc.logCap, tc.initCwnd, tc.warm)
			before := nic.Stats()
			if a := runAllocs(t, eng, 100, 2*sim.Microsecond); a != 0 {
				t.Errorf("%v allocs per 2us slice of ACK-clocked DCTCP with the Slow Path on, want 0", a)
			}
			after := nic.Stats()
			if after.SlowPathRuns-before.SlowPathRuns < 100 || after.InfoRx == before.InfoRx {
				t.Fatalf("measured slices ran %d Slow Path events over %d INFO packets: the guard measured nothing",
					after.SlowPathRuns-before.SlowPathRuns, after.InfoRx-before.InfoRx)
			}
		})
	}
}

// BenchmarkSlowPath64k is 1 us of the NIC at 5,461 closed-loop DCTCP flows a
// port with the Slow Path on (about 12 ACKs, Slow Path posts and runs).
func BenchmarkSlowPath64k(b *testing.B) {
	eng, nic := newSlowPathNIC(b, 5461, 1<<10, 0, 2*sim.Millisecond)
	before := nic.Stats().SlowPathRuns
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(eng.Now().Add(sim.Microsecond))
	}
	b.StopTimer()
	if runs := nic.Stats().SlowPathRuns - before; runs < uint64(b.N) {
		b.Fatalf("%d Slow Path runs in %d us: the benchmark is not on the Slow Path", runs, b.N)
	}
}

// A CC timer firing (DCQCN's alpha and rate timers) and a retransmission
// timeout each run the module, re-arm through the flow's own timer record
// and allocate nothing.
func TestTimerFiringsAllocateNothing(t *testing.T) {
	t.Run("EvTimer", func(t *testing.T) {
		eng, nic := newLoopNIC(t, "dcqcn", true, nil)
		if err := nic.StartFlow(3, 0, 0); err != nil {
			t.Fatal(err)
		}
		eng.Run(sim.Time(sim.Millisecond))
		before := nic.Stats().EventsHandled - nic.Stats().InfoRx
		period := nic.Params().AlphaTimer
		if a := runAllocs(t, eng, 50, period); a != 0 {
			t.Errorf("%v allocs per %v of DCQCN with both timers running, want 0", a, period)
		}
		if fired := nic.Stats().EventsHandled - nic.Stats().InfoRx - before; fired < 50 {
			t.Fatalf("only %d timer events in the measured slices", fired)
		}
	})
	t.Run("EvTimeout", func(t *testing.T) {
		eng, nic := newLoopNIC(t, "dctcp", false, nil)
		if err := nic.StartFlow(3, 0, 0); err != nil {
			t.Fatal(err)
		}
		rto := nic.Params().RTOMin
		eng.Run(eng.Now().Add(4 * rto))
		before := nic.Stats().Timeouts
		if a := runAllocs(t, eng, 20, rto); a != 0 {
			t.Errorf("%v allocs per RTO of an unacknowledged DCTCP flow, want 0", a)
		}
		if fired := nic.Stats().Timeouts - before; fired < 10 {
			t.Fatalf("only %d timeouts in the measured slices", fired)
		}
	})
}

// Regression test for the scheduling-FIFO leak: the per-port FIFOs were
// head-indexed slices reset only when they drained, which never happens
// while rate-paced flows circulate, so they grew with every TX slot. A
// hardware FIFO holds each flow at most once (§5.2).
func TestSchedulerFIFOBounded(t *testing.T) {
	const flows = 16
	eng, nic := newLoopNIC(t, "dcqcn", true, nil)
	for f := packet.FlowID(0); f < flows; f++ {
		if err := nic.StartFlow(f, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run(sim.Time(50 * sim.Millisecond))
	if tx := nic.Stats().ScheTx; tx < 100_000 {
		t.Fatalf("only %d SCHE in 50 ms: the flows did not circulate", tx)
	}
	fifo, prio := &nic.sched.fifo[0], &nic.sched.prio[0]
	if c := cap(fifo.buf); c > 4*flows {
		t.Errorf("scheduling FIFO capacity %d after 50 ms of %d circulating flows, want <= %d", c, flows, 4*flows)
	}
	if c := cap(prio.buf); c > 4*flows {
		t.Errorf("priority FIFO capacity %d, want <= %d", c, 4*flows)
	}
	// At-most-once: the FIFO's entries are exactly the flows marked inFIFO.
	seen := map[packet.FlowID]bool{}
	for i := 0; i < fifo.n; i++ {
		fl := fifo.buf[(fifo.head+i)&(len(fifo.buf)-1)]
		if seen[fl] {
			t.Errorf("flow %d is in the scheduling FIFO twice", fl)
		}
		seen[fl] = true
	}
	for f := packet.FlowID(0); f < flows; f++ {
		if in := nic.flows.Get(f).inFIFO; in != seen[f] {
			t.Errorf("flow %d: inFIFO=%v but present in FIFO=%v", f, in, seen[f])
		}
	}
}

// The same leak in the RX FIFO: under INFO arriving faster than the RX timer
// drains it the FIFO never empties, and its backing store must stay within
// the configured depth however long that lasts.
func TestSaturatedRXFIFOBounded(t *testing.T) {
	const depth = 64
	r := newRig(t, func(c *Config) { c.RXFIFODepth = depth })
	r.nic.StartFlow(1, 0, 0)
	// Two INFO per RX-timer period, for 20,000 periods.
	period := sim.Interval(11.97e6)
	for i := uint32(1); i <= 20_000; i++ {
		r.ackUpTo(1, i, 0)
		r.ackUpTo(1, i, 0)
		r.eng.Run(r.eng.Now().Add(period))
	}
	st := r.nic.Stats()
	if st.InfoDrops == 0 || r.nic.rxFIFO[0].len() < depth-1 {
		t.Fatalf("RX FIFO not saturated: drops=%d occupancy=%d", st.InfoDrops, r.nic.rxFIFO[0].len())
	}
	if c := cap(r.nic.rxFIFO[0].buf); c > 2*depth {
		t.Errorf("RX FIFO capacity %d after 40,000 arrivals at depth %d, want <= %d", c, depth, 2*depth)
	}
}

// The BRAM bound is checked at StartFlow, before any page exists: the last
// legal ID starts (allocating exactly its page), the first illegal one is
// refused with the capacity error and allocates nothing.
func TestFlowStoreBoundAndPaging(t *testing.T) {
	for _, maxFlows := range []int{0, 1000} {
		r := newRig(t, func(c *Config) { c.MaxFlows = maxFlows })
		limit := maxFlows
		if limit == 0 {
			limit = MaxFlowsByBRAM()
		}
		if got := r.nic.flows.Pages(); got != 0 {
			t.Fatalf("MaxFlows=%d: a fresh NIC holds %d flow pages", maxFlows, got)
		}
		for _, id := range []int{limit, limit + flowtab.PageSize, 1 << 30} {
			err := r.nic.StartFlow(packet.FlowID(id), 0, 10)
			if err == nil || !strings.Contains(err.Error(), "exceeds BRAM capacity") {
				t.Errorf("MaxFlows=%d: StartFlow(%d) = %v, want the BRAM capacity error", maxFlows, id, err)
			}
		}
		if got := r.nic.flows.Pages(); got != 0 {
			t.Errorf("MaxFlows=%d: refused flows allocated %d pages", maxFlows, got)
		}
		last := packet.FlowID(limit - 1)
		if err := r.nic.StartFlow(last, 0, 10); err != nil {
			t.Fatalf("MaxFlows=%d: last legal flow %d: %v", maxFlows, last, err)
		}
		if err := r.nic.StartFlow(0, 1, 10); err != nil {
			t.Fatal(err)
		}
		if got := r.nic.flows.Pages(); got != 2 {
			t.Errorf("MaxFlows=%d: two flows in two pages hold %d pages", maxFlows, got)
		}
		if _, _, active := r.nic.FlowProgress(last); !active || r.nic.ActiveFlows() != 2 {
			t.Errorf("MaxFlows=%d: last legal flow not active (ActiveFlows=%d)", maxFlows, r.nic.ActiveFlows())
		}
	}
}

// INFO for a flow whose page was never allocated, for a never-started flow
// in an allocated page, for a stopped flow and for an ID beyond the store
// are all dropped without touching the CC module; a Slow Path event and a
// timer outliving their flow do nothing.
func TestEventsForAbsentFlowsAreDropped(t *testing.T) {
	r := newRig(t, func(c *Config) {
		alg, _ := cc.New("dctcp")
		c.Algorithm = alg
		c.Params.InitCwnd = 4
	})
	r.nic.StartFlow(1, 0, 0)
	r.eng.Run(sim.Time(sim.Microsecond))
	handled := r.nic.Stats().EventsHandled
	for _, fl := range []packet.FlowID{2, 900, 1023, 1024, 5000, 1 << 31} {
		r.nic.InfoIn().Receive(&packet.Packet{Type: packet.INFO, Flow: fl, Ack: 1, Size: packet.ControlSize})
		r.nic.StopFlow(fl)
		if una, nxt, active := r.nic.FlowProgress(fl); una != 0 || nxt != 0 || active {
			t.Errorf("flow %d never started but reads (%d,%d,%v)", fl, una, nxt, active)
		}
	}
	r.eng.Run(sim.Time(10 * sim.Microsecond))
	if got := r.nic.Stats().EventsHandled; got != handled {
		t.Errorf("INFO for absent flows ran the CC module %d times", got-handled)
	}
	if got := r.nic.flows.Pages(); got != 1 {
		t.Errorf("events for absent flows allocated pages: %d held", got)
	}

	// An ACK closing flow 1's window posts a Slow Path event; the flow stops
	// before it executes.
	r.ackUpTo(1, 1, 0)
	r.eng.Run(r.eng.Now().Add(sim.Interval(11.97e6))) // the RX tick delivers it
	r.nic.StopFlow(1)
	runs := r.nic.Stats().SlowPathRuns
	r.eng.Run(sim.Time(sim.Second))
	if st := r.nic.Stats(); st.SlowPathRuns != runs || st.Timeouts != 0 {
		t.Errorf("events outlived their flow: SlowPathRuns %d -> %d, Timeouts %d", runs, st.SlowPathRuns, st.Timeouts)
	}
	if r.nic.ActiveFlows() != 0 {
		t.Errorf("ActiveFlows = %d after stopping the only flow", r.nic.ActiveFlows())
	}
}

// A flow restarted in a reused slot arms its timers with the slot itself as
// the event's argument, so there is no per-timer record to keep: start, one
// RTO arm and stop allocate nothing, however often the slot is reused, and
// the RTO that fires hands the module the slot it was armed for.
func TestRestartedFlowReusesTimerRecords(t *testing.T) {
	r := newRig(t, nil)
	start := func() {
		if err := r.nic.StartFlow(7, 0, 10); err != nil {
			t.Fatal(err)
		}
		r.eng.Run(r.eng.Now().Add(sim.Microsecond)) // first SCHE arms the RTO backstop
		if !r.nic.timerHandle(7, cc.TimerRTO).Armed() {
			t.Fatal("RTO not armed after the first transmission")
		}
	}
	cycle := func() {
		start()
		r.nic.StopFlow(7)
		if r.nic.timerHandle(7, cc.TimerRTO).Armed() {
			t.Fatal("RTO still armed after StopFlow")
		}
		for _, p := range r.sche {
			p.Release()
		}
		r.sche = r.sche[:0]
	}
	cycle()
	if a := testing.AllocsPerRun(50, cycle); a != 0 && !race.Enabled {
		t.Errorf("%v allocs per start/arm/stop cycle of a reused slot, want 0", a)
	}

	var args []any
	fire := r.nic.timerFns[cc.TimerRTO]
	r.nic.timerFns[cc.TimerRTO] = func(arg any) { args = append(args, arg); fire(arg) }
	start()
	r.eng.Run(r.eng.Now().Add(r.nic.Params().RTOMin))
	if slot := r.nic.flows.Get(7); len(args) == 0 || args[0] != any(slot) {
		t.Errorf("RTO fired with arguments %v, want the slot %p", args, slot)
	}
	if got := r.nic.Stats().Timeouts; got != 1 {
		t.Errorf("%d timeouts delivered after one RTO, want 1", got)
	}
}

// The per-flow rows hold the fields the model reads and no padding: the
// NIC's flow word is three 64 B parts — the transport word, cust-var at 64
// and slwpth-var at 128 — so each is one cache line and a 64-flow page is
// Go's 12 KiB size class. Timer handles and the RMW occupancy live in side
// tables.
func TestFlowRowSizes(t *testing.T) {
	var f flowState
	if got := unsafe.Sizeof(f); got != 192 {
		t.Errorf("flowState is %d B, want 192", got)
	}
	if got := unsafe.Offsetof(f.cust); got != 64 {
		t.Errorf("cust-var starts at byte %d, want 64", got)
	}
	if got := unsafe.Offsetof(f.slow); got != 128 {
		t.Errorf("slwpth-var starts at byte %d, want 128", got)
	}
	if got := unsafe.Sizeof([flowtab.PageSize]flowState{}); got != 12<<10 {
		t.Errorf("a flow-store page is %d B, want 12,288", got)
	}
}

// namedReno is Reno under another name: a distinct module to the NIC's
// module table.
type namedReno struct {
	cc.Reno
	name string
}

func (m namedReno) Name() string { return m.name }

// StartFlowCC builds a fresh module for every flow, and the NIC keeps one
// module-table entry per name. A thousand restarts of one ID alternating two
// overrides leave the table at three entries (the default and the two), and
// each incarnation runs the module it named. The flow word's index is one
// byte: the default and 255 overrides fill the table, and the next distinct
// override is refused before the flow starts.
func TestModuleTableDeduplicatesByName(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Algorithm, _ = cc.New("dctcp") })
	for i := 0; i < 1000; i++ {
		name := [2]string{"cubic", "reno"}[i%2]
		alg, err := cc.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.nic.StartFlowWith(7, 0, 0, alg, cc.PreferredECT(alg)); err != nil {
			t.Fatal(err)
		}
		if got := r.nic.algs[r.nic.flows.Get(7).alg].Name(); got != name {
			t.Fatalf("incarnation %d runs %s, want %s", i, got, name)
		}
		r.nic.StopFlow(7)
	}
	if len(r.nic.algs) != 3 {
		t.Fatalf("module table holds %d entries after 1,000 restarts over two overrides, want 3", len(r.nic.algs))
	}
	dctcp, _ := cc.New("dctcp")
	for _, alg := range []cc.Algorithm{nil, dctcp} {
		if err := r.nic.StartFlowWith(8, 0, 0, alg, 0); err != nil {
			t.Fatal(err)
		}
		if got := r.nic.flows.Get(8).alg; got != 0 {
			t.Errorf("override %v resolves to entry %d, want the default's 0", alg, got)
		}
		r.nic.StopFlow(8)
	}

	for i := len(r.nic.algs); i < 256; i++ {
		if err := r.nic.StartFlowWith(9, 0, 0, namedReno{name: fmt.Sprint("reno", i)}, 0); err != nil {
			t.Fatalf("distinct module %d refused: %v", i, err)
		}
		r.nic.StopFlow(9)
	}
	err := r.nic.StartFlowWith(9, 0, 0, namedReno{name: "one-too-many"}, 0)
	if err == nil || !strings.Contains(err.Error(), "module table is full") {
		t.Errorf("a 256th distinct override = %v, want the full-table error", err)
	}
	if _, _, active := r.nic.FlowProgress(9); active || len(r.nic.algs) != 256 {
		t.Errorf("refused override left flow 9 active=%v and %d table entries", active, len(r.nic.algs))
	}
	if err := r.nic.StartFlowWith(9, 0, 0, namedReno{name: "reno100"}, 0); err != nil {
		t.Errorf("a module already in the full table refused: %v", err)
	}
}

// ActiveFlows and FlowProgress read the paged store as they read the flat
// one: flows scattered over first, middle and last pages, in window and
// rate mode and under the scan scheduler, counted as they start, finish
// and stop.
func TestActiveFlowsAndProgressAcrossPages(t *testing.T) {
	ids := []packet.FlowID{0, 63, 64, 500, 1022, 1023}
	for _, tc := range []struct {
		algo string
		mode SchedulerMode
	}{{"reno", ReschedulingFIFO}, {"dctcp", CyclicScan}, {"dcqcn", ReschedulingFIFO}} {
		r := newRig(t, func(c *Config) {
			alg, _ := cc.New(tc.algo)
			c.Algorithm, c.Scheduler = alg, tc.mode
		})
		for i, id := range ids {
			if err := r.nic.StartFlow(id, i%12, 3); err != nil {
				t.Fatal(err)
			}
			if got := r.nic.ActiveFlows(); got != i+1 {
				t.Fatalf("%s: ActiveFlows = %d after %d starts", tc.algo, got, i+1)
			}
		}
		r.eng.Run(sim.Time(20 * sim.Microsecond))
		// Flow 64 finishes, flow 1023 is stopped, the rest stay in flight.
		_, nxt, _ := r.nic.FlowProgress(64)
		for nxt < 3 {
			r.ackUpTo(64, nxt, 0)
			r.eng.Run(r.eng.Now().Add(5 * sim.Microsecond))
			_, nxt, _ = r.nic.FlowProgress(64)
		}
		r.ackUpTo(64, 3, 0)
		r.eng.Run(r.eng.Now().Add(5 * sim.Microsecond))
		r.nic.StopFlow(1023)
		if _, ok := r.fcts[64]; !ok {
			t.Fatalf("%s: flow 64 did not complete", tc.algo)
		}
		want := map[packet.FlowID]bool{0: true, 63: true, 500: true, 1022: true}
		active := 0
		for id := packet.FlowID(0); id < 1100; id++ {
			una, nxt, on := r.nic.FlowProgress(id)
			if on != want[id] {
				t.Errorf("%s: flow %d active=%v, want %v", tc.algo, id, on, want[id])
			}
			if on {
				active++
				if nxt == 0 || una > nxt {
					t.Errorf("%s: flow %d progress una=%d nxt=%d", tc.algo, id, una, nxt)
				}
			}
		}
		if got := r.nic.ActiveFlows(); got != active || got != len(want) {
			t.Errorf("%s: ActiveFlows = %d, FlowProgress counts %d, want %d", tc.algo, got, active, len(want))
		}
		if una, nxt, _ := r.nic.FlowProgress(64); una != 3 || nxt != 3 {
			t.Errorf("%s: finished flow 64 reads una=%d nxt=%d, want 3, 3", tc.algo, una, nxt)
		}
	}
}

// oneShotTimer is Reno plus a timer armed once, at the flow's start, and
// never re-armed: after it fires, nothing but the firing itself can say it
// is no longer pending.
type oneShotTimer struct{ cc.Reno }

func (m oneShotTimer) OnEvent(in *cc.Input, out *cc.Output) {
	m.Reno.OnEvent(in, out)
	if in.Type == cc.EvStart {
		out.ArmTimer(cc.TimerAlpha, sim.Microsecond)
	}
}

// taken counts the table's blocks not on its free list.
func (t *timerTable) taken() int {
	n := len(t.slabs) * timerSlabLen
	for r := t.free; r != 0; n-- {
		s, i := t.at(r)
		r = s.next[i]
	}
	return n
}

// timerHandle returns a flow's handle of timer id, read through its block
// in the timer table; the zero Handle while it holds no block.
func (n *NIC) timerHandle(flow packet.FlowID, id uint8) sim.Handle {
	f := n.flows.Get(flow)
	if f == nil || f.timers == 0 {
		return sim.Handle{}
	}
	return n.timers.handles(f.timers)[id]
}

// The flow word's armed bits say what the timer handles say: after every
// event of a run that arms, re-arms, fires, stops and cancels timers —
// window-mode RTOs under reno, the alpha and rate timers under dcqcn, a
// timer that fires and is not re-armed, a flow stopped, restarted in its
// slot and run to completion — bit id is set exactly when the handle in the
// flow's timer block is pending, a flow holds a block exactly while a bit
// is set, and the table's live blocks are those flows'. The scheduler's
// self-check holds throughout.
func TestArmedBitsFollowHandles(t *testing.T) {
	reno, err := cc.New("reno")
	if err != nil {
		t.Fatal(err)
	}
	dcqcn, err := cc.New("dcqcn")
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []cc.Algorithm{reno, dcqcn, oneShotTimer{}} {
		algo := alg.Name()
		r := newRig(t, func(c *Config) { c.Algorithm = alg })
		for f := packet.FlowID(1); f <= 4; f++ {
			if err := r.nic.StartFlow(f, int(f), 400); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 20000 && r.eng.Step(); step++ {
			switch {
			case step%97 == 0:
				f := packet.FlowID(1 + step/97%4)
				if una, nxt, active := r.nic.FlowProgress(f); active && nxt > una {
					r.ackUpTo(f, una+(nxt-una+1)/2, 0)
				}
			case step == 1000:
				r.nic.StopFlow(3)
			case step == 2000:
				if err := r.nic.StartFlow(3, 3, 8); err != nil {
					t.Fatal(err)
				}
			}
			holding := 0
			for f := packet.FlowID(1); f <= 4; f++ {
				s := r.nic.flows.Get(f)
				if (s.armed != 0) != (s.timers != 0) {
					t.Fatalf("%s step %d flow %d: armed bits %03b with timer block %d", algo, step, f, s.armed, s.timers)
				}
				if s.armed != 0 {
					holding++
				}
				for id := range uint8(cc.NumTimers) {
					if bit, armed := s.armed>>id&1 == 1, r.nic.timerHandle(f, id).Armed(); bit != armed {
						t.Fatalf("%s step %d flow %d timer %d: armed bit %v, handle armed %v", algo, step, f, id, bit, armed)
					}
				}
			}
			if live := r.nic.timers.taken(); live != holding {
				t.Fatalf("%s step %d: %d timer blocks live, %d flows have a timer armed", algo, step, live, holding)
			}
			if err := r.nic.CheckScheduler(); err != nil {
				t.Fatalf("%s step %d: %v", algo, step, err)
			}
		}
		if _, done := r.fcts[3]; !done {
			t.Errorf("%s: restarted flow 3 did not complete", algo)
		}
		for _, p := range r.sche {
			p.Release()
		}
	}
}
