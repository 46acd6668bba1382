package core

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"marlin/internal/aqm"
	"marlin/internal/cc"
	"marlin/internal/fabric"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/race"
	"marlin/internal/sim"
)

// lineRateTester builds a 4-port dctcp tester on the given topology and
// starts one unbounded flow per entry of rx, port p sending to rx[p].
// Windows are pinned above the path's bandwidth-delay product and the queue
// marks: every flow runs at line rate, and the packets and events in flight,
// hence the pools, stop growing within a warm-up.
func lineRateTester(t *testing.T, topo string, sharedQueue bool, rx []int) *Tester {
	t.Helper()
	spec, err := fabric.ParseSpec(topo)
	if err != nil {
		t.Fatal(err)
	}
	params := cc.DefaultParams(100*sim.Gbps, 1024)
	params.InitCwnd, params.MaxCwnd = 256, 256
	tr := newTester(t, Config{
		Algorithm: mustAlg(t, "dctcp"), Params: params, DataPorts: 4, Topology: spec, Seed: 1,
		AQM: aqm.Spec{Kind: aqm.KindECN, K: 65}, SharedQueue: sharedQueue,
	})
	for p, to := range rx {
		if err := tr.StartFlow(packet.FlowID(p), p, to, 0); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// Once warm, the whole per-packet path — SCHE, DATA generation, every hop of
// the tested network reading the flow's destination from the routing column,
// ACK, INFO, the CC module and its Slow Path — allocates nothing, on the
// canonical switch, on a multi-hop fabric and with the §4.2 shared-queue
// ablation's TEMP slots. The NIC's log ring is the one thing still growing
// (to its 1 Mi-record bound, a piece at a time); a piece that lands in the
// measured slices is below AllocsPerRun's integer average.
func TestPacketPathAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, c := range []struct {
		topo   string
		shared bool
	}{{"", false}, {"leafspine:2x2", false}, {"", true}} {
		topo := c.topo
		if c.shared {
			topo = "shared queue"
		}
		tr := lineRateTester(t, c.topo, c.shared, []int{2, 3, 0, 1})
		tr.Run(sim.Time(sim.Millisecond)) // fills the RTT ring and the event and packet pools
		before := tr.PipelineCounters().DataTx
		if a := testing.AllocsPerRun(100, func() { tr.Run(tr.Eng.Now().Add(2 * sim.Microsecond)) }); a != 0 {
			t.Errorf("topology %q: %v allocs per 2us slice at line rate, want 0", topo, a)
		}
		if pkts := tr.PipelineCounters().DataTx - before; pkts < 5000 {
			t.Fatalf("topology %q: only %d DATA packets in the measured slices", topo, pkts)
		}
		for _, st := range tr.NetworkStats() {
			if st.Misroutes != 0 || st.Unrouted != 0 {
				t.Errorf("topology %q: switch %s misrouted %d, left %d unrouted", topo, st.Name, st.Misroutes, st.Unrouted)
			}
		}
	}
}

// With in-band telemetry on, every DATA packet takes a telemetry record at
// its first fabric hop and returns it to the tester's pool when the INFO
// packet that carried it back is consumed, so a warm HPCC tester on a
// multi-hop fabric still allocates nothing a packet.
func TestINTPacketPathAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	spec, err := fabric.ParseSpec("leafspine:2x2")
	if err != nil {
		t.Fatal(err)
	}
	tr := newTester(t, Config{
		Algorithm: mustAlg(t, "hpcc"), DataPorts: 4, Topology: spec, EnableINT: true, Seed: 1,
	})
	for p, to := range []int{2, 3, 0, 1} {
		if err := tr.StartFlow(packet.FlowID(p), p, to, 0); err != nil {
			t.Fatal(err)
		}
	}
	var stamped, infos uint64
	_, info := tr.DeviceLinks()
	info[0].AddHook(func(p *packet.Packet) netem.HookAction {
		if p.Type == packet.INFO {
			infos++
			if p.INT != nil && p.INT.NHops > 0 {
				stamped++
			}
		}
		return netem.Pass
	})
	tr.Run(sim.Time(sim.Millisecond))
	before := tr.PipelineCounters().DataTx
	if a := testing.AllocsPerRun(100, func() { tr.Run(tr.Eng.Now().Add(2 * sim.Microsecond)) }); a != 0 {
		t.Errorf("%v allocs per 2us slice of HPCC with INT, want 0", a)
	}
	if pkts := tr.PipelineCounters().DataTx - before; pkts < 5000 {
		t.Fatalf("only %d DATA packets in the measured slices", pkts)
	}
	if infos == 0 || stamped != infos {
		t.Errorf("%d of %d INFO packets carried telemetry, want all", stamped, infos)
	}
}

// Nor when the run moves between Ps, which AllocsPerRun (it pins
// GOMAXPROCS to 1) cannot show: two goroutines take turns running slices of
// a dcqcn fan-in, whose packets in flight rise and fall with the rates, as
// the Go scheduler moves a fleet worker's or the benchmark's goroutine
// between Ps. A one-island tester recycles its packets through its own
// packet.Pool; through the shared sync.Pool, whose per-P caches grow and
// shrink as the run hops, the same slices allocate about 30 times, a count
// that varies from run to run. The Go runtime allocates a little on its own
// (its scavenger's timer, an OS thread it starts when the world restarts
// after ReadMemStats), so when a window counts allocations, the heap
// profile, which then samples every allocation, says where they were made.
// The window passes if every one of them sits on a stack with no marlin/
// frame (those stacks are logged); one stack through marlin code fails it
// at once. A window whose allocations the profile cannot account for is
// measured again, up to three times. The same holds with Module A placed
// on the FPGA across the reserved port, and for the fan-in on a fattree:4
// at Shards 2, whose two islands run on a crew of two goroutines besides:
// each island draws from a pool of its own, a packet changes pools as it
// crosses the cut, and the barrier hands free packets back to the island
// that mints them.
func TestPacketPathAllocatesNothingAcrossPs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	fattree := fabric.Spec{Kind: fabric.KindFatTree, K: 4}
	// The sharded fan-in warms up for longer: each of its two NICs fills
	// its RTT window at half the rate of a one-island tester's one NIC.
	for _, c := range []struct {
		name string
		edit func(*Config)
		warm int64
	}{
		{"receiver on the switch", nil, 200},
		{"receiver on the FPGA", func(c *Config) { c.ReceiverOnFPGA = true }, 200},
		{"fattree:4 at Shards 2", func(c *Config) { c.Topology, c.Shards = fattree, 2 }, 600},
	} {
		settled := false
		for try := 0; try < 3 && !settled; try++ {
			w := hoppingFaninAllocs(t, c.edit, c.warm)
			switch {
			case w.n == 0:
				settled = true
			case w.ours != "":
				t.Fatalf("%s: %d allocations in fan-in slices run by alternating goroutines, want 0; through marlin code at:\n%s",
					c.name, w.n, w.ours)
			case w.runtimeObjs >= w.n:
				t.Logf("%s: %d allocations, all by the Go runtime, at:\n%s", c.name, w.n, w.runtime)
				settled = true
			default:
				t.Logf("%s: %d allocations, the profile accounts for %d, at:\n%s",
					c.name, w.n, w.runtimeObjs, w.runtime)
			}
		}
		if !settled {
			t.Errorf("%s: fan-in slices run by alternating goroutines allocated in three windows, want 0", c.name)
		}
	}
}

// allocWindow is what one measured window allocated: the count, and the
// heap profile's new stacks in it, those through marlin code apart from the
// rest (with their object count).
type allocWindow struct {
	n           uint64
	ours        string
	runtime     string
	runtimeObjs uint64
}

// hoppingFaninAllocs runs a fresh fan-in tester, its config changed by
// edit, in 5us slices that two goroutines take turns at, and returns the
// allocations of 800 slices after a warm-up of warm slices and, when there
// are any, the stacks that made them: the heap profile samples every
// allocation while the slices run.
func hoppingFaninAllocs(t *testing.T, edit func(*Config), warm int64) allocWindow {
	const slices = 800
	tr := faninTesterWith(t, edit)
	// Goroutine w runs the slices n with n%2 == w below stop, in order; the
	// atomics hand the tester from one to the other. Blocking on a channel
	// or a WaitGroup would allocate from per-P caches of its own.
	var next, stop atomic.Int64
	var wg sync.WaitGroup
	defer wg.Wait()
	defer next.Store(-1)
	for w := range int64(2) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := next.Load()
				if n < 0 {
					return
				}
				if n >= stop.Load() || n%2 != w {
					runtime.Gosched()
					continue
				}
				tr.Run(sim.Time(sim.Duration(n+1) * 5 * sim.Microsecond))
				next.Store(n + 1)
			}
		}()
	}
	runTo := func(n int64) {
		stop.Store(n)
		for next.Load() < n {
			runtime.Gosched()
		}
	}
	runTo(warm)
	runtime.GC() // starts the GC's workers, if this is the first
	sites := allocSites()
	var m0, m1 runtime.MemStats
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	runtime.ReadMemStats(&m0)
	runTo(warm + slices)
	runtime.ReadMemStats(&m1)
	w := allocWindow{n: m1.Mallocs - m0.Mallocs}
	if w.n == 0 {
		return w
	}
	runtime.GC() // publishes the window's samples to the heap profile
	w.ours, w.runtime, w.runtimeObjs = newAllocStacks(sites, allocSites())
	return w
}

// allocSites reads the heap profile: objects allocated so far, per stack.
func allocSites() map[[32]uintptr]int64 {
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			sites := make(map[[32]uintptr]int64, n)
			for _, r := range recs[:n] {
				sites[r.Stack0] += r.AllocObjects
			}
			return sites
		}
	}
}

// newAllocStacks prints each stack that allocated between two allocSites
// readings, with its count, sorted: those with a marlin/ frame in ours, the
// rest in others, whose objects it counts too. Stacks through allocSites are
// the readings' own, made outside the window, and are left out. A shard
// crew's park counts as the runtime's: a waiter parks only after polling for
// milliseconds, when other processes hold the CPUs, and the runtime then
// takes a wait record (a sudog) from its per-P cache, allocating when the
// goroutine has moved to a P whose cache is empty.
func newAllocStacks(before, after map[[32]uintptr]int64) (ours, others string, otherObjs uint64) {
	var mine, theirs []string
	for stk, objs := range after {
		if objs <= before[stk] {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%d objects:\n", objs-before[stk])
		rec := runtime.MemProfileRecord{Stack0: stk}
		frames := runtime.CallersFrames(rec.Stack())
		marlin, reading, parked := false, false, false
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			marlin = marlin || strings.HasPrefix(f.Function, "marlin/")
			reading = reading || strings.HasSuffix(f.Function, "core.allocSites")
			parked = parked || f.Function == "marlin/internal/shard.(*crew).park"
			fmt.Fprintf(&b, "\t%s\n\t\t%s:%d\n", f.Function, f.File, f.Line)
		}
		switch {
		case reading:
		case marlin && !parked:
			mine = append(mine, b.String())
		default:
			theirs = append(theirs, b.String())
			otherObjs += uint64(objs - before[stk])
		}
	}
	sort.Strings(mine)
	sort.Strings(theirs)
	return strings.Join(mine, ""), strings.Join(theirs, ""), otherObjs
}

// An external (flood) flow's ID lies above every NIC flow, and above the
// BRAM bound: binding it costs one page of the routing column and nothing
// in the flow table (it has no NIC state), flows in between stay unbound,
// and a packet of a flow nobody bound — in an allocated page, an unallocated
// one or past the directory — is dropped at the switch and counted, not a
// panic.
func TestExternalFlowGrowsDenseTable(t *testing.T) {
	tr := newTester(t, Config{Algorithm: mustAlg(t, "dctcp"), DataPorts: 2, Seed: 1})
	if err := tr.StartFlow(3, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	const flood = packet.FlowID(80_000) // MaxFlowsByBRAM() is 70,312
	if err := tr.BindExternalFlow(flood, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.BindExternalFlow(flood+1, 2); err == nil {
		t.Error("BindExternalFlow accepted an rx port the tester does not have")
	}
	if r, f := tr.route.Pages(), tr.flows.Pages(); r != 2 || f != 1 {
		t.Errorf("after starting flow 3 and binding flow %d: %d route pages and %d flow pages, want 2 and 1", flood, r, f)
	}
	for _, c := range []struct {
		flow packet.FlowID
		want int
	}{{3, 1}, {flood, 1}, {4, -1}, {flood - 1, -1}, {flood + 1, -1}, {1 << 31, -1}} {
		if got := tr.dst(&packet.Packet{Flow: c.flow}); got != c.want {
			t.Errorf("dst(flow %d) = %d, want %d", c.flow, got, c.want)
		}
	}
	if tr.owner(flood) != nil || tr.owner(flood+1) != nil || tr.owner(3) == nil {
		t.Error("owner: only NIC-started flows have a TX-side island")
	}
	tr.StopFlow(flood) // no NIC state: a no-op
	if tr.FlowTxBytes(flood) != 0 || tr.FlowTrace(flood) != nil {
		t.Error("an external flow reads NIC or pipeline state")
	}

	tr.InjectData(flood, 0, 0, 1024, packet.ECT0)
	tr.InjectData(flood-1, 0, 0, 1024, packet.ECT0)
	tr.InjectData(1<<31, 0, 0, 1024, packet.ECT0)
	delivered := tr.ForwardLink(1).Stats().TxPackets
	tr.Run(sim.Time(20 * sim.Microsecond))
	if got := tr.Switches()[0].Unrouted(); got != 2 {
		t.Errorf("switch dropped %d unrouted packets, want 2", got)
	}
	if tr.ForwardLink(1).Stats().TxPackets == delivered {
		t.Error("the bound flood frame never reached receiver port 1")
	}
}

// faninTester builds the dcqcn fan-in: four flows on each of ports 0-3 into
// port 4, rate paced, with a standing marked queue at the receiver port.
func faninTester(t *testing.T) *Tester { return faninTesterWith(t, nil) }

// faninTesterWith is faninTester with its config changed by edit (nil:
// unchanged) before the build.
func faninTesterWith(t *testing.T, edit func(*Config)) *Tester {
	t.Helper()
	params := cc.DefaultParams(100*sim.Gbps, 1024)
	params.ScaleDCQCNTime(30)
	cfg := Config{
		Algorithm: mustAlg(t, "dcqcn"), Params: params, DataPorts: 5, Seed: 1,
		AQM: aqm.Spec{Kind: aqm.KindECN, K: 65}, NetQueueBytes: 8 << 20,
	}
	if edit != nil {
		edit(&cfg)
	}
	tr := newTester(t, cfg)
	for p := 0; p < 4; p++ {
		for i := 0; i < 4; i++ {
			if err := tr.StartFlow(packet.FlowID(4*p+i), p, 4, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tr
}

// An event is scheduled only where simulated time is waited for: at line
// rate a DATA packet costs a fixed number of engine events — a delivery per
// link hop, plus the timers of the cables that run near full load and the
// NIC's ticks — and a fusion lost anywhere on the path shows up here as a
// higher count. The leaf-spine flows cross the spine, one per direction so
// that ECMP cannot collide them: two more link hops, two more events. The
// bounds are the measured 7.76 and 9.51 (13.01 and 17.01 with a wake-up per
// frame on every link and an event per TEMP slot); one lost fusion adds
// between 0.9 and 1.0.
//
// The dcqcn fan-in paces 16 flows below the rate of their four TX ports, so
// most TX slots find no flow due; its rate-mode ports sleep through those
// slots instead of firing an event for each. The bound is the measured 9.90
// (16.39 with an event per TX slot). Its 16 flows share one receiver port
// under DCQCN, so its floor is a rate below that port's line rate (≈ 6.9
// Mpps measured).
func TestEventsPerDataPacket(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(*testing.T) *Tester
		pps   float64 // DATA rate floor
		most  float64
	}{
		{"single switch", func(t *testing.T) *Tester { return lineRateTester(t, "", false, []int{2, 3, 0, 1}) }, 4 * 11.9e6, 7.8},
		{"leafspine:2x2", func(t *testing.T) *Tester { return lineRateTester(t, "leafspine:2x2", false, []int{1, 0}) }, 2 * 11.9e6, 9.6},
		{"dcqcn fan-in", faninTester, 6e6, 10.2},
	} {
		tr := c.build(t)
		tr.Run(sim.Time(200 * sim.Microsecond))
		ev, pkts := tr.EventsExecuted(), tr.PipelineCounters().DataTx
		tr.Run(sim.Time(700 * sim.Microsecond))
		ev, pkts = tr.EventsExecuted()-ev, tr.PipelineCounters().DataTx-pkts
		if floor := uint64(c.pps * 500e-6); pkts < floor {
			t.Fatalf("%s: %d DATA packets in 500us, below %d", c.name, pkts, floor)
		}
		per := float64(ev) / float64(pkts)
		t.Logf("%s: %.2f events per DATA packet", c.name, per)
		if per > c.most {
			t.Errorf("%s: %.2f events per DATA packet, want <= %.2f", c.name, per, c.most)
		}
	}
}
