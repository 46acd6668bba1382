package fpga

import (
	"fmt"
	"strings"
	"testing"

	"marlin/internal/cc"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/race"
	"marlin/internal/sim"
)

// testRig couples a NIC to a synthetic switch stub that captures SCHE
// packets and lets the test inject INFO packets.
type testRig struct {
	t    *testing.T
	eng  *sim.Engine
	nic  *NIC
	sche []*packet.Packet
	fcts map[packet.FlowID]sim.Duration
}

func newRig(t *testing.T, mutate func(*Config)) *testRig {
	t.Helper()
	eng := sim.NewEngine()
	alg, err := cc.New("reno")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Ports:      12,
		MaxFlows:   1024,
		Algorithm:  alg,
		Params:     cc.DefaultParams(100*sim.Gbps, 1024),
		TXTimerPPS: 11.97e6,
		RXTimerPPS: 11.97e6,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	nic, err := NewNIC(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rig := &testRig{t: t, eng: eng, nic: nic, fcts: map[packet.FlowID]sim.Duration{}}
	nic.ConnectSche(netem.NodeFunc(func(p *packet.Packet) {
		rig.sche = append(rig.sche, p)
	}))
	nic.OnComplete(func(f packet.FlowID, fct sim.Duration) { rig.fcts[f] = fct })
	return rig
}

// ackUpTo injects an INFO acknowledging everything scheduled so far.
func (r *testRig) ackUpTo(flow packet.FlowID, ack uint32, flags packet.Flags) {
	r.nic.InfoIn().Receive(&packet.Packet{
		Type: packet.INFO, Flow: flow, Ack: ack, PSN: ack,
		Flags: flags, Size: packet.ControlSize, Port: r.flowPort(flow),
	})
}

func (r *testRig) flowPort(flow packet.FlowID) int {
	return int(r.nic.flows.Get(flow).port)
}

func (r *testRig) scheFor(flow packet.FlowID) []*packet.Packet {
	var out []*packet.Packet
	for _, p := range r.sche {
		if p.Flow == flow {
			out = append(out, p)
		}
	}
	return out
}

func TestMaxFlowsByBRAMSupports65536(t *testing.T) {
	if got := MaxFlowsByBRAM(); got < 65536 {
		t.Fatalf("BRAM capacity = %d flows, want >= 65536 (§8)", got)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	alg, _ := cc.New("reno")
	base := Config{Ports: 1, Algorithm: alg,
		Params: cc.DefaultParams(100*sim.Gbps, 1024), TXTimerPPS: 1e6}
	bad := []func(*Config){
		func(c *Config) { c.Ports = 0 },
		func(c *Config) { c.Ports = 1 << 16 }, // the flow word's port is 16 bits
		func(c *Config) { c.Algorithm = nil },
		func(c *Config) { c.TXTimerPPS = 0 },
		func(c *Config) { c.RXTimerPPS = 2e6 }, // RX > TX violates §5.3
		func(c *Config) { c.MaxFlows = 1 << 20 },
		func(c *Config) { c.Params.MTU = 1 },
	}
	for i, mut := range bad {
		cfg := base
		mut(&cfg)
		if _, err := NewNIC(eng, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewNIC(eng, base); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestStartFlowValidation(t *testing.T) {
	r := newRig(t, nil)
	if err := r.nic.StartFlow(1, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := r.nic.StartFlow(1, 0, 10); err == nil {
		t.Error("duplicate StartFlow accepted")
	}
	if err := r.nic.StartFlow(2, 99, 10); err == nil {
		t.Error("bad port accepted")
	}
	if err := r.nic.StartFlow(9999, 0, 10); err == nil {
		t.Error("flow beyond MaxFlows accepted")
	}
	if r.nic.ActiveFlows() != 1 {
		t.Errorf("ActiveFlows = %d", r.nic.ActiveFlows())
	}
}

func TestWindowLimitsInflight(t *testing.T) {
	r := newRig(t, nil) // Reno, InitCwnd=1
	r.nic.StartFlow(1, 0, 100)
	// Stay below the 500us RTO floor: past it the transmit-side backstop
	// legitimately retransmits (no acks for a full RTO).
	r.eng.Run(sim.Time(400 * sim.Microsecond))
	// cwnd=1 and no acks: exactly one SCHE.
	if got := len(r.scheFor(1)); got != 1 {
		t.Fatalf("SCHE count = %d with cwnd=1 and no acks, want 1", got)
	}
	p := r.sche[0]
	if p.Type != packet.SCHE || p.PSN != 0 || p.Port != 0 {
		t.Fatalf("SCHE = %+v", p)
	}
}

func TestAckOpensWindow(t *testing.T) {
	r := newRig(t, nil)
	r.nic.StartFlow(1, 0, 100)
	r.eng.Run(sim.Time(sim.Microsecond))
	r.ackUpTo(1, 1, 0)                         // ack PSN 0 -> slow start doubles cwnd to 2
	r.eng.Run(sim.Time(450 * sim.Microsecond)) // below the RTO floor
	// After the ack: cwnd=2, una=1 -> two more packets (PSN 1, 2).
	if got := len(r.scheFor(1)); got != 3 {
		t.Fatalf("SCHE count = %d after one ack, want 3", got)
	}
}

func TestTXTimerPacesSche(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Params.InitCwnd = 64; c.Params.Ssthresh = 64 })
	r.nic.StartFlow(1, 0, 1000)
	r.eng.Run(sim.Time(sim.Millisecond))
	sches := r.scheFor(1)
	if len(sches) < 10 {
		t.Fatalf("too few SCHE to check pacing: %d", len(sches))
	}
	slot := sim.Interval(11.97e6)
	for i := 1; i < len(sches); i++ {
		gap := sches[i].SentAt.Sub(sches[i-1].SentAt)
		if gap < slot {
			t.Fatalf("SCHE gap %v < TX slot %v (egress overrun, §5.3)", gap, slot)
		}
	}
}

func TestFlowCompletionReportsFCT(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Params.InitCwnd = 16 })
	r.nic.StartFlow(1, 0, 4)
	r.eng.Run(sim.Time(400 * sim.Microsecond)) // below the RTO floor
	if got := len(r.scheFor(1)); got != 4 {
		t.Fatalf("scheduled %d packets of a 4-packet flow", got)
	}
	r.ackUpTo(1, 4, 0)
	r.eng.RunAll()
	fct, ok := r.fcts[1]
	if !ok {
		t.Fatal("completion not reported")
	}
	if fct <= 0 {
		t.Fatalf("fct = %v", fct)
	}
	if _, _, active := r.nic.FlowProgress(1); active {
		t.Fatal("flow still active after completion")
	}
	if r.nic.Stats().Completions != 1 {
		t.Fatal("completion counter not bumped")
	}
}

func TestFlowIDReuseAfterCompletion(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Params.InitCwnd = 16 })
	r.nic.StartFlow(1, 0, 2)
	r.eng.Run(sim.Time(sim.Millisecond))
	r.ackUpTo(1, 2, 0)
	r.eng.RunAll()
	if err := r.nic.StartFlow(1, 3, 2); err != nil {
		t.Fatalf("flow reuse rejected: %v", err)
	}
	r.eng.Run(r.eng.Now().Add(sim.Duration(sim.Millisecond)))
	var first *packet.Packet
	for _, p := range r.sche {
		if p.Port == 3 {
			first = p
			break
		}
	}
	if first == nil || first.PSN != 0 {
		t.Fatalf("reused flow first SCHE = %+v, want PSN 0 on port 3", first)
	}
}

func TestDupAcksTriggerPriorityRetransmission(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Params.InitCwnd = 16; c.Params.Ssthresh = 16 })
	r.nic.StartFlow(1, 0, 100)
	r.eng.Run(sim.Time(sim.Millisecond))
	for i := 0; i < 3; i++ {
		r.ackUpTo(1, 0, 0) // dup acks at 0
		r.eng.Run(r.eng.Now().Add(sim.Duration(sim.Microsecond)))
	}
	r.eng.Run(r.eng.Now().Add(sim.Duration(sim.Millisecond)))
	var rtx *packet.Packet
	for _, p := range r.scheFor(1) {
		if p.Flags.Has(packet.FlagRetransmit) {
			rtx = p
			break
		}
	}
	if rtx == nil {
		t.Fatal("no retransmission SCHE after 3 dup acks")
	}
	if rtx.PSN != 0 {
		t.Fatalf("retransmitted PSN %d, want 0", rtx.PSN)
	}
	if r.nic.Stats().RtxTx == 0 {
		t.Fatal("RtxTx counter not bumped")
	}
}

func TestRTOFiresWithoutAcks(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Params.InitCwnd = 4; c.Params.RTOMin = sim.Micros(100) })
	r.nic.StartFlow(1, 0, 100)
	// Need one event to arm the RTO: a partial ack.
	r.eng.Run(sim.Time(sim.Microsecond))
	r.ackUpTo(1, 1, 0)
	r.eng.Run(sim.Time(sim.Millisecond * 10))
	if r.nic.Stats().Timeouts == 0 {
		t.Fatal("RTO never fired with unacked data")
	}
}

func TestRateModePacing(t *testing.T) {
	r := newRig(t, func(c *Config) {
		alg, _ := cc.New("dcqcn")
		c.Algorithm = alg
	})
	r.nic.StartFlow(1, 0, 0) // unbounded
	r.eng.Run(sim.Time(sim.Micros(100)))
	sches := r.scheFor(1)
	// At line rate, pacing gap = wire time of one MTU: expect roughly
	// 100us / 83.52ns ~ 1197 packets; TX timer may shave a little.
	if len(sches) < 1000 || len(sches) > 1250 {
		t.Fatalf("rate-mode SCHE count = %d in 100us, want ~1100-1200", len(sches))
	}
}

func TestRateModeSlowsAfterCNP(t *testing.T) {
	r := newRig(t, func(c *Config) {
		alg, _ := cc.New("dcqcn")
		c.Algorithm = alg
		// Keep the rate down: no recovery timers firing in the window.
		c.Params.RateTimer = sim.Millisecond * 100
		c.Params.AlphaTimer = sim.Millisecond * 100
	})
	r.nic.StartFlow(1, 0, 0)
	r.eng.Run(sim.Time(sim.Micros(50)))
	before := len(r.scheFor(1))
	r.ackUpTo(1, 10, packet.FlagCNPNotify) // 50% rate cut
	r.eng.Run(sim.Time(sim.Micros(100)))
	after := len(r.scheFor(1)) - before
	// Second 50us at half rate should emit roughly half of the first.
	if after >= before || after < before/3 {
		t.Fatalf("before=%d after=%d: CNP did not halve pacing", before, after)
	}
}

func TestRXTimerPreventsRMWConflicts(t *testing.T) {
	r := newRig(t, func(c *Config) {
		alg, _ := cc.New("dctcp") // 24-cycle module
		c.Algorithm = alg
		c.Params.InitCwnd = 64
	})
	r.nic.StartFlow(1, 0, 0)
	r.eng.Run(sim.Time(sim.Microsecond))
	// Burst of INFO packets back-to-back (DPDK-style ack burst, §5.3).
	for i := uint32(1); i <= 64; i++ {
		r.ackUpTo(1, i, 0)
	}
	r.eng.Run(sim.Time(sim.Millisecond))
	st := r.nic.Stats()
	if st.RMWConflicts != 0 {
		t.Fatalf("RX timer enabled but %d conflicts occurred", st.RMWConflicts)
	}
	if st.InfoRx != 64 {
		t.Fatalf("InfoRx = %d", st.InfoRx)
	}
}

func TestDisabledRXTimerExposesRMWConflicts(t *testing.T) {
	r := newRig(t, func(c *Config) {
		alg, _ := cc.New("dctcp")
		c.Algorithm = alg
		c.Params.InitCwnd = 64
		c.DisableRXTimer = true
	})
	r.nic.StartFlow(1, 0, 0)
	r.eng.Run(sim.Time(sim.Microsecond))
	for i := uint32(1); i <= 64; i++ {
		r.ackUpTo(1, i, 0) // same instant: arrival rate >> 1/24 cycles
	}
	r.eng.Run(sim.Time(sim.Millisecond))
	if r.nic.Stats().RMWConflicts == 0 {
		t.Fatal("burst at line rate produced no conflicts with RX timer off (Challenge 3)")
	}
}

func TestRXFIFOOverflowCounted(t *testing.T) {
	r := newRig(t, func(c *Config) { c.RXFIFODepth = 8 })
	r.nic.StartFlow(1, 0, 0)
	r.eng.Run(sim.Time(sim.Microsecond))
	for i := uint32(1); i <= 100; i++ {
		r.ackUpTo(1, i, 0)
	}
	// No time passes between injections, so the FIFO must shed.
	if r.nic.Stats().InfoDrops == 0 {
		t.Fatal("RX FIFO burst not dropped")
	}
	r.eng.Run(sim.Time(sim.Millisecond))
}

func TestSchedulerFairnessTwoFlowsOnePort(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Params.InitCwnd = 8
		c.Params.Ssthresh = 8
	})
	r.nic.StartFlow(1, 0, 0)
	r.nic.StartFlow(2, 0, 0)
	// Closed loop: ack everything each flow sends, keeping both active.
	for round := 0; round < 200; round++ {
		r.eng.Run(r.eng.Now().Add(sim.Duration(sim.Micros(2))))
		for _, fl := range []packet.FlowID{1, 2} {
			_, nxt, _ := r.nic.FlowProgress(fl)
			r.ackUpTo(fl, nxt, 0)
		}
	}
	n1, n2 := len(r.scheFor(1)), len(r.scheFor(2))
	if n1 == 0 || n2 == 0 {
		t.Fatalf("starvation: n1=%d n2=%d", n1, n2)
	}
	ratio := float64(n1) / float64(n2)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("unfair scheduling: n1=%d n2=%d", n1, n2)
	}
}

func TestSlowPathRuns(t *testing.T) {
	r := newRig(t, func(c *Config) {
		alg, _ := cc.New("dctcp")
		c.Algorithm = alg
		c.Params.InitCwnd = 8
	})
	r.nic.StartFlow(1, 0, 0)
	for i := uint32(1); i <= 50; i++ {
		r.eng.Run(r.eng.Now().Add(sim.Duration(sim.Micros(1))))
		r.ackUpTo(1, i, packet.FlagECNEcho)
	}
	r.eng.Run(r.eng.Now().Add(sim.Duration(sim.Millisecond)))
	if r.nic.Stats().SlowPathRuns == 0 {
		t.Fatal("DCTCP alpha updates never reached the Slow Path")
	}
}

func TestStopFlowCancelsTimers(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Params.RTOMin = sim.Micros(50) })
	r.nic.StartFlow(1, 0, 100)
	r.eng.Run(sim.Time(sim.Microsecond))
	r.ackUpTo(1, 1, 0) // arms RTO
	r.nic.StopFlow(1)
	r.eng.Run(sim.Time(sim.Second))
	if r.nic.Stats().Timeouts != 0 {
		t.Fatal("timer fired after StopFlow")
	}
}

func TestNICStallFreezesTimersAndResumes(t *testing.T) {
	r := newRig(t, nil) // Reno, InitCwnd=1
	r.nic.StartFlow(1, 0, 100)
	r.eng.Run(sim.Time(10 * sim.Microsecond))
	if got := len(r.scheFor(1)); got != 1 {
		t.Fatalf("pre-stall SCHE = %d, want 1 (window-limited)", got)
	}
	// Stall, then deliver an ack. The INFO lands in the RX FIFO but the
	// frozen RX timer must not pace it into the CC module, so the window
	// stays closed and no SCHE goes out.
	r.nic.SetStall(true)
	if !r.nic.Stalled() {
		t.Fatal("Stalled() = false after SetStall(true)")
	}
	r.ackUpTo(1, 1, 0)
	r.eng.Run(sim.Time(300 * sim.Microsecond)) // below the RTO floor
	if got := len(r.scheFor(1)); got != 1 {
		t.Fatalf("SCHE = %d during stall, want 1 (timers must freeze)", got)
	}
	if r.nic.Stats().InfoRx != 1 {
		t.Fatalf("InfoRx = %d, want 1 (FIFO still accepts during stall)", r.nic.Stats().InfoRx)
	}
	// Unstall: the queued INFO drains, the window opens, SCHE resumes.
	// (Stop before the post-unstall sends' RTO backstop would fire.)
	r.nic.SetStall(false)
	r.eng.Run(sim.Time(600 * sim.Microsecond))
	if got := len(r.scheFor(1)); got != 3 {
		t.Fatalf("SCHE = %d after unstall, want 3 (queued ack processed)", got)
	}
}

func TestNICStallRTOPushFlushesOnUnstall(t *testing.T) {
	// An RTO firing mid-stall queues its retransmission in the priority
	// FIFO; the push must survive the stall and emit on recovery.
	r := newRig(t, func(c *Config) { c.Params.InitCwnd = 4; c.Params.RTOMin = sim.Micros(50) })
	r.nic.StartFlow(1, 0, 100)
	r.eng.Run(sim.Time(sim.Microsecond))
	r.ackUpTo(1, 1, 0) // partial ack with data outstanding: arms the RTO
	r.eng.Run(sim.Time(10 * sim.Microsecond))
	r.nic.SetStall(true)
	r.eng.Run(sim.Time(sim.Millisecond)) // RTO fires during the stall
	if r.nic.Stats().Timeouts == 0 {
		t.Fatal("RTO did not fire during stall (CC timers must keep running)")
	}
	if r.nic.Stats().RtxTx != 0 {
		t.Fatal("retransmission emitted while stalled")
	}
	r.nic.SetStall(false)
	r.eng.Run(sim.Time(2 * sim.Millisecond))
	if r.nic.Stats().RtxTx == 0 {
		t.Fatal("queued retransmission did not flush after unstall")
	}
}

func TestScanSchedulerWorksButWastesSlots(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Scheduler = CyclicScan
		c.Params.InitCwnd = 4
		c.MaxFlows = 4096
	})
	// Many registered-but-idle flows ahead of the active one: the scan
	// budget (cycles per slot) is exhausted before reaching it.
	for i := packet.FlowID(0); i < 2000; i++ {
		if err := r.nic.StartFlow(i, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.Run(sim.Time(sim.Micros(200)))
	st := r.nic.Stats()
	if st.ScheTx == 0 {
		t.Fatal("scan scheduler emitted nothing")
	}
	if st.ScanGiveUps == 0 {
		t.Fatal("scan over 2000 mostly-window-limited flows never exhausted its budget (Challenge 2)")
	}
}

// A flow ID restarted on another port under the scan scheduler is scanned on
// its new port only: its SCHE leave there, the flows sharing its old port
// keep theirs, and the old port stops ticking for it.
func TestScanSchedulerFollowsRestartedFlowToItsPort(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Scheduler = CyclicScan })
	for _, fl := range []packet.FlowID{1, 7, 2} {
		if err := r.nic.StartFlow(fl, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	r.nic.StopFlow(7)
	if err := r.nic.StartFlow(7, 3, 0); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(sim.Time(5 * sim.Microsecond))
	for fl, want := range map[packet.FlowID]int{1: 0, 2: 0, 7: 3} {
		sche := r.scheFor(fl)
		if len(sche) == 0 {
			t.Errorf("flow %d sent no SCHE", fl)
		}
		for _, p := range sche {
			if p.Port != want {
				t.Errorf("flow %d sent SCHE PSN %d on port %d, want %d", fl, p.PSN, p.Port, want)
			}
		}
	}
	if got := r.nic.sched.portFlows; len(got[0]) != 2 || len(got[3]) != 1 {
		t.Errorf("scan tables hold %v on port 0 and %v on port 3, want flows 1, 2 and flow 7", got[0], got[3])
	}
	r.nic.StopFlow(1)
	r.nic.StopFlow(2)
	if r.nic.sched.hasWork(0) {
		t.Error("port 0 keeps ticking for a flow restarted on port 3")
	}
}

// §5.2 keeps one scheduling event a flow, on its port. A flow stopped while
// its event is queued and restarted at once on another port sends from its
// new port only: under a four-packet window restarted flow 7 sends PSNs 0-3
// once each, all on port 3, where its first incarnation's event, left on
// port 0, used to send PSN 1 there. The scheduler's self-check holds after
// every event.
func TestRestartOnAnotherPortSendsThereOnce(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Params.InitCwnd = 4 })
	for _, fl := range []packet.FlowID{1, 7} {
		if err := r.nic.StartFlow(fl, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.Run(sim.Time(200 * sim.Nanosecond))
	r.nic.StopFlow(7)
	before := len(r.sche)
	if err := r.nic.StartFlow(7, 3, 0); err != nil {
		t.Fatal(err)
	}
	end := r.eng.Now().Add(2 * sim.Microsecond)
	for {
		if err := r.nic.CheckScheduler(); err != nil {
			t.Fatalf("at %v: %v", r.eng.Now(), err)
		}
		if at, ok := r.eng.NextEventAt(); !ok || at > end {
			break
		}
		r.eng.Step()
	}
	var got []string
	for _, p := range r.sche[before:] {
		if p.Flow == 7 {
			got = append(got, fmt.Sprintf("PSN %d on port %d", p.PSN, p.Port))
		}
	}
	want := []string{"PSN 0 on port 3", "PSN 1 on port 3", "PSN 2 on port 3", "PSN 3 on port 3"}
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Errorf("restarted flow 7 sent %v, want %v", got, want)
	}
}

// A retransmission event left in the old port's priority FIFO by a flow
// stopped and restarted on another port is not sent from the old port,
// though the restarted flow has a retransmission pending: it leaves from
// port 3 only.
func TestRestartOnAnotherPortLeavesNoRetransmissionBehind(t *testing.T) {
	r := newRig(t, nil)
	startWithRtx := func(port int) {
		if err := r.nic.StartFlow(7, port, 0); err != nil {
			t.Fatal(err)
		}
		f := r.nic.flows.Get(7)
		f.rtxWait, f.rtxPSN = true, 0
		r.nic.sched.pushPriority(f)
	}
	startWithRtx(0)
	r.nic.StopFlow(7)
	startWithRtx(3)
	r.eng.Run(sim.Time(2 * sim.Microsecond))
	for _, p := range r.scheFor(7) {
		if p.Port != 3 {
			t.Errorf("restarted flow 7 sent PSN %d (flags %#x) on port %d, want port 3", p.PSN, p.Flags, p.Port)
		}
	}
}

func TestLoggerRingAndTrace(t *testing.T) {
	l := NewLogger(4)
	var rec [16]byte
	for i := 0; i < 6; i++ {
		var o cc.Output
		o.LogU32x4(uint32(i), uint32(i*2), 0, 0)
		rec = o.Log
		l.Record(sim.Time(i), 7, rec)
	}
	if l.Len() != 4 || l.Total() != 6 || l.Evicted() != 2 {
		t.Fatalf("len=%d total=%d evicted=%d", l.Len(), l.Total(), l.Evicted())
	}
	tr := l.FlowTrace(7)
	if len(tr) != 4 || tr[0].A != 2 || tr[3].A != 5 {
		t.Fatalf("trace = %+v", tr)
	}
	if tr[0].At > tr[3].At {
		t.Fatal("trace out of order")
	}
	if l.QDMAPackets() == 0 {
		t.Fatal("QDMA accounting missing")
	}
}

// The ring grows piece by piece: Records stays chronological against a
// plain "keep the last capacity" model at every fill level and through
// several wraps, pieces already written are never moved, and the reserve
// stays within append's 1.25x of what is held.
func TestLoggerPieces(t *testing.T) {
	for _, capacity := range []int{1, 255, 256, 1000, 5000} {
		l := NewLogger(capacity)
		var model []Record
		var first *Record
		for i := 0; i < 3*capacity+7; i++ {
			r := Record{At: sim.Time(i), Flow: packet.FlowID(i % 5)}
			r.Data[0] = byte(i)
			l.Record(r.At, r.Flow, r.Data)
			if model = append(model, r); len(model) > capacity {
				model = model[1:]
			}
			if i == 0 {
				first = &l.ring.pieces[0][0]
			}
			if i%97 != 0 && i != 3*capacity+6 {
				continue
			}
			got := l.Records()
			if len(got) != len(model) || l.Len() != len(model) {
				t.Fatalf("capacity %d after %d: %d records (Len %d), want %d", capacity, i+1, len(got), l.Len(), len(model))
			}
			for j := range got {
				if got[j] != model[j] {
					t.Fatalf("capacity %d after %d: record %d = %+v, want %+v", capacity, i+1, j, got[j], model[j])
				}
			}
			reserved := 0
			for _, p := range l.ring.pieces {
				reserved += cap(p)
			}
			if most := l.Len() + l.Len()/4 + firstPiece; reserved > most || reserved > capacity {
				t.Fatalf("capacity %d after %d: %d records reserved for %d held", capacity, i+1, reserved, l.Len())
			}
		}
		if first != &l.ring.pieces[0][0] {
			t.Fatalf("capacity %d: the first piece moved", capacity)
		}
		if want := uint64(2*capacity + 7); l.Evicted() != want || l.Total() != uint64(3*capacity+7) {
			t.Fatalf("capacity %d: evicted %d total %d, want %d evicted", capacity, l.Evicted(), l.Total(), want)
		}
	}
}

// The RTT window keeps the last rttWindow probes and RTTSamples returns them
// oldest first, as the append-then-overwrite ring did, before, at and past
// the point where it wraps; it grows in four pieces, which never move.
func TestRTTWindow(t *testing.T) {
	r := newRig(t, nil)
	if s, c, _ := r.nic.RTTSamples(); s != nil || c != 0 {
		t.Fatalf("a fresh NIC returns %d samples, count %d", len(s), c)
	}
	var model []float64
	var first *float64
	for i := 0; i < 3*rttWindow+5; i++ {
		r.nic.sampleRTT(sim.Duration(i+1) * sim.Microsecond)
		if model = append(model, float64(i+1)); len(model) > rttWindow {
			model = model[1:]
		}
		if i == 0 {
			first = &r.nic.rtt.pieces[0][0]
		}
		if i%1000 != 0 && i != rttWindow-1 && i != rttWindow && i != 3*rttWindow+4 {
			continue
		}
		got, count, _ := r.nic.RTTSamples()
		if count != uint64(i+1) || len(got) != len(model) {
			t.Fatalf("after %d probes: count %d, %d samples; want %d samples", i+1, count, len(got), len(model))
		}
		for j := range got {
			if got[j] != model[j] {
				t.Fatalf("after %d probes: sample %d = %v, want %v", i+1, j, got[j], model[j])
			}
		}
	}
	if first != &r.nic.rtt.pieces[0][0] {
		t.Fatal("the first piece of the RTT window moved")
	}
	reserved := 0
	for _, p := range r.nic.rtt.pieces {
		reserved += cap(p)
	}
	if reserved != rttWindow || len(r.nic.rtt.pieces) != 4 {
		t.Errorf("a full RTT window reserves %d samples in %d pieces, want %d in 4", reserved, len(r.nic.rtt.pieces), rttWindow)
	}
}

// The logger counts every flow's records and retains only traced flows'
// (§5.1: the host keeps what it asked for). A flow traced before StartFlow
// keeps its EvStart record and stays traced across a restart of its ID; an
// untraced flow's trace is nil; an ID past MaxFlows is refused and
// allocates no page.
func TestLoggerRetainsOnlyTracedFlows(t *testing.T) {
	r := newRig(t, nil)
	if err := r.nic.TraceFlow(2); err != nil {
		t.Fatal(err)
	}
	for f := packet.FlowID(0); f < 4; f++ {
		if err := r.nic.StartFlow(f, int(f), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint32(1); i <= 20; i++ {
		for f := packet.FlowID(0); f < 4; f++ {
			r.ackUpTo(f, i, 0)
		}
		r.eng.Run(r.eng.Now().Add(sim.Microsecond))
	}
	l := r.nic.Logger()
	recs := l.Records()
	if len(recs) == 0 || l.Total() <= uint64(len(recs)) || l.Evicted() != 0 {
		t.Fatalf("total %d, retained %d, evicted %d: want some of flow 2's records retained of more counted",
			l.Total(), len(recs), l.Evicted())
	}
	for _, rec := range recs {
		if rec.Flow != 2 {
			t.Fatalf("untraced flow %d retained a record", rec.Flow)
		}
	}
	if _, _, _, ev := cc.DecodeLogU32x4(recs[0].Data); cc.EventType(ev) != cc.EvStart || recs[0].At != 0 {
		t.Errorf("first retained record is event %d at %v, want EvStart at 0", ev, recs[0].At)
	}
	if got := len(l.FlowTrace(2)); got != len(recs) {
		t.Errorf("FlowTrace(2) has %d points of %d retained records", got, len(recs))
	}
	if tr := l.FlowTrace(0); tr != nil {
		t.Errorf("untraced flow 0 has a trace of %d points", len(tr))
	}

	// A restart of the traced ID logs its EvStart again.
	r.nic.StopFlow(2)
	if err := r.nic.StartFlow(2, 2, 0); err != nil {
		t.Fatal(err)
	}
	if got := l.Len(); got != len(recs)+1 {
		t.Errorf("restarting traced flow 2 retained %d new records, want 1", got-len(recs))
	}

	pages := r.nic.flows.Pages()
	for _, id := range []packet.FlowID{1024, 1 << 24} {
		if err := r.nic.TraceFlow(id); err == nil || !strings.Contains(err.Error(), "exceeds BRAM capacity") {
			t.Errorf("TraceFlow(%d) = %v, want the BRAM capacity error", id, err)
		}
	}
	if got := r.nic.flows.Pages(); got != pages {
		t.Errorf("refused TraceFlow calls allocated %d pages", got-pages)
	}
}

// FlowTrace reads the ring in place: over a full, wrapped ring of several
// flows it allocates the result and nothing else, and a flow with no
// retained record allocates nothing.
func TestFlowTraceAllocatesOnlyItsResult(t *testing.T) {
	l := NewLogger(5000)
	var o cc.Output
	for i := 0; i < 12_345; i++ {
		o.LogU32x4(uint32(i), 0, 0, 0)
		l.Record(sim.Time(i), packet.FlowID(i%5), o.Log)
	}
	tr := l.FlowTrace(3)
	if len(tr) != 1000 || tr[0].A%5 != 3 || tr[len(tr)-1].A != 12_343 {
		t.Fatalf("FlowTrace(3) = %d points from %d to %d", len(tr), tr[0].A, tr[len(tr)-1].A)
	}
	if race.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	if a := testing.AllocsPerRun(20, func() { l.FlowTrace(3) }); a != 1 {
		t.Errorf("FlowTrace of 1,000 of 5,000 retained records: %v allocs, want 1 (the result)", a)
	}
	if a := testing.AllocsPerRun(20, func() { l.FlowTrace(9) }); a != 0 {
		t.Errorf("FlowTrace of a flow with no records: %v allocs, want 0", a)
	}
}

func TestLoggerDisabled(t *testing.T) {
	r := newRig(t, func(c *Config) { c.DisableLog = true })
	if r.nic.Logger() != nil {
		t.Fatal("logger present despite DisableLog")
	}
	r.nic.StartFlow(1, 0, 10)
	r.eng.Run(sim.Time(sim.Microsecond * 10))
	r.ackUpTo(1, 1, 0) // must not panic without a logger
	r.eng.Run(sim.Time(sim.Millisecond))
}

func BenchmarkNICClosedLoop(b *testing.B) {
	eng := sim.NewEngine()
	alg, _ := cc.New("dctcp")
	cfg := Config{
		Ports: 1, MaxFlows: 16, Algorithm: alg,
		Params:     cc.DefaultParams(100*sim.Gbps, 1024),
		TXTimerPPS: 11.97e6, DisableLog: true,
	}
	cfg.Params.InitCwnd = 16
	nic, err := NewNIC(eng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var pending []*packet.Packet
	nic.ConnectSche(netem.NodeFunc(func(p *packet.Packet) { pending = append(pending, p) }))
	if err := nic.StartFlow(1, 0, 0); err != nil {
		b.Fatal(err)
	}
	info := nic.InfoIn()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.Run(eng.Now().Add(sim.Duration(sim.Micros(1))))
		for _, p := range pending {
			info.Receive(&packet.Packet{
				Type: packet.INFO, Flow: p.Flow, Ack: p.PSN + 1,
				Size: packet.ControlSize,
			})
		}
		pending = pending[:0]
	}
}

func Test65536ConcurrentFlows(t *testing.T) {
	// The paper's headline concurrency: 65,536 flows live at once within
	// the BRAM budget, scheduled across 12 ports, every one completing.
	// A loopback stub acknowledges each SCHE immediately (zero-RTT
	// switch+network), so the test isolates the NIC's flow machinery.
	eng := sim.NewEngine()
	alg, _ := cc.New("dctcp")
	params := cc.DefaultParams(100*sim.Gbps, 1024)
	params.InitCwnd = 2
	nic, err := NewNIC(eng, Config{
		Ports:      12,
		MaxFlows:   65536,
		Algorithm:  alg,
		Params:     params,
		TXTimerPPS: 11.97e6,
		DisableLog: true, // 131k events would otherwise fill the ring
	})
	if err != nil {
		t.Fatal(err)
	}
	info := nic.InfoIn()
	nic.ConnectSche(netem.NodeFunc(func(p *packet.Packet) {
		ack := p.PSN + 1
		port := p.Port
		eng.Schedule(sim.Microsecond, func() {
			info.Receive(&packet.Packet{
				Type: packet.INFO, Flow: p.Flow, Ack: ack,
				Port: port, Size: packet.ControlSize, SentAt: p.SentAt,
			})
		})
	}))
	done := 0
	nic.OnComplete(func(packet.FlowID, sim.Duration) { done++ })
	const flows = 65536
	for f := 0; f < flows; f++ {
		if err := nic.StartFlow(packet.FlowID(f), f%12, 2); err != nil {
			t.Fatalf("flow %d: %v", f, err)
		}
	}
	if got := nic.ActiveFlows(); got != flows {
		t.Fatalf("active = %d, want %d", got, flows)
	}
	eng.Run(sim.Time(100 * sim.Millisecond))
	if done != flows {
		t.Fatalf("completed %d/%d flows", done, flows)
	}
	st := nic.Stats()
	if st.ScheTx < 2*flows {
		t.Fatalf("ScheTx = %d, want >= %d", st.ScheTx, 2*flows)
	}
	if st.InfoDrops != 0 {
		t.Fatalf("RX FIFO drops at max concurrency: %d", st.InfoDrops)
	}
}
