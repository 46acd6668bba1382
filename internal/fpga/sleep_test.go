package fpga

import (
	"fmt"
	"testing"

	"marlin/internal/cc"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

// scheRecord is one SCHE as the sleeping-timer differential test compares it.
type scheRecord struct {
	at    sim.Time
	port  int
	flow  packet.FlowID
	psn   uint32
	flags packet.Flags
}

func (s scheRecord) String() string {
	return fmt.Sprintf("%dps port %d flow %d psn %d flags %#x", int64(s.at), s.port, s.flow, s.psn, s.flags)
}

// txScriptRun is what one run of a TX script produced.
type txScriptRun struct {
	sche   []scheRecord
	stats  Stats
	events uint64
}

// runTXScript drives a rate-mode NIC through a seeded script on port 0: ACKs
// that complete finite flows, CNPs and RTT probes that move the rate, NACKs
// that rewind go-back-N, RTOs, StopFlow and restarts of an ID. perSlot runs
// the per-slot reference tick instead of the sleeping one.
//
// Odd seeds add NIC stall windows. Even seeds instead restart some IDs on
// port 3 at the instant they stop, which takes their scheduling event off
// port 0, so both ports send. The scheduler's self-check holds after every
// action. The two never mix: clearing a stall re-arms
// every port at one instant, and two ports whose slots then fall on the
// same picosecond may emit in either order (DESIGN.md, the sleeping TX
// timer). For the same reason the RX timer runs slower than the TX timer:
// at equal periods both re-arm at the instant a stall clears, and an RX
// tick that queues a retransmission shares every later picosecond with a
// TX slot. Script times fall on arbitrary picoseconds, so no action lands
// on a slot boundary.
func runTXScript(t *testing.T, algo string, seed uint64, perSlot bool) txScriptRun {
	t.Helper()
	r := newRig(t, func(c *Config) {
		alg, err := cc.New(algo)
		if err != nil {
			t.Fatal(err)
		}
		c.Algorithm = alg
		c.GoBackN = true
		c.Params.RTOMin = sim.Micros(40)
		c.Params.ScaleDCQCNTime(10)
		c.Params.LineRate = 25 * sim.Gbps // a few flows leave idle slots
		c.RXTimerPPS = 10e6
	})
	if perSlot {
		r.nic.sched.sleeps = false
	}
	var run txScriptRun
	sent := map[packet.FlowID]uint32{} // highest PSN + 1 each flow has sent
	r.nic.ConnectSche(netem.NodeFunc(func(p *packet.Packet) {
		run.sche = append(run.sche, scheRecord{p.SentAt, p.Port, p.Flow, p.PSN, p.Flags})
		if p.PSN+1 > sent[p.Flow] {
			sent[p.Flow] = p.PSN + 1
		}
		p.Release()
	}))
	rng := sim.NewRand(seed)
	moves := seed%2 == 0
	const flows = 6 // more than budget, so port 0 cannot always sleep
	start := func(flow packet.FlowID, port int) {
		size := uint32(0)
		if rng.Intn(3) > 0 {
			size = uint32(10 + rng.Intn(150))
		}
		sent[flow] = 0
		if err := r.nic.StartFlow(flow, port, size); err != nil {
			t.Fatal(err)
		}
	}
	for fl := packet.FlowID(0); fl < 3; fl++ {
		start(fl, 0)
	}
	const horizon = 3 * sim.Millisecond
	at := sim.Time(0)
	for {
		at = at.Add(rng.Exp(3 * sim.Microsecond))
		if at >= sim.Time(horizon) {
			break
		}
		r.eng.Run(at)
		r.eng.AdvanceTo(at)
		flow := packet.FlowID(rng.Intn(flows))
		_, _, active := r.nic.FlowProgress(flow)
		switch k := rng.Intn(100); {
		case k < 50 && active:
			una, _, _ := r.nic.FlowProgress(flow)
			info := &packet.Packet{Type: packet.INFO, Flow: flow, Size: packet.ControlSize, Port: r.flowPort(flow)}
			info.Ack = una + uint32(rng.Intn(int(sent[flow]-una)+1))
			switch c := rng.Intn(10); {
			case c < 3:
				info.Flags = packet.FlagCNPNotify
			case c < 4:
				info.Flags = packet.FlagNACK
			}
			info.SentAt = at.Add(-sim.Duration(2+rng.Intn(60)) * sim.Microsecond)
			r.nic.InfoIn().Receive(info)
		case k < 60 && active:
			r.nic.StopFlow(flow)
			if moves && rng.Intn(2) == 0 {
				start(flow, 3*rng.Intn(2))
			}
		case k < 75 && !active:
			start(flow, 0)
		case k < 80 && !moves && !r.nic.Stalled():
			r.nic.SetStall(true)
			r.eng.ScheduleAt(at.Add(sim.Duration(200+rng.Intn(20_000))*sim.Nanosecond), func() { r.nic.SetStall(false) })
		}
		if err := r.nic.CheckScheduler(); err != nil {
			t.Fatalf("%s seed %d at %v: %v", algo, seed, at, err)
		}
	}
	r.eng.Run(sim.Time(horizon))
	run.stats, run.events = r.nic.Stats(), r.eng.Executed()
	return run
}

// The sleeping TX timer is an optimisation of the per-slot tick, not a new
// scheduler: on every script the two emit the same SCHE sequence, to the
// picosecond, and end with the same counters, wasted slots included — while
// the sleeping one fires fewer engine events.
func TestSleepingTXTimerMatchesPerSlotTick(t *testing.T) {
	for _, algo := range []string{"dcqcn", "timely"} {
		var saved, total uint64
		for seed := uint64(1); seed <= 24; seed++ {
			sleepy := runTXScript(t, algo, seed, false)
			ref := runTXScript(t, algo, seed, true)
			for i := range min(len(sleepy.sche), len(ref.sche)) {
				if sleepy.sche[i] != ref.sche[i] {
					t.Fatalf("%s seed %d: SCHE %d is %v, the per-slot tick sends %v", algo, seed, i, sleepy.sche[i], ref.sche[i])
				}
			}
			if len(sleepy.sche) != len(ref.sche) {
				t.Fatalf("%s seed %d: %d SCHE, the per-slot tick sends %d", algo, seed, len(sleepy.sche), len(ref.sche))
			}
			if sleepy.stats != ref.stats {
				t.Fatalf("%s seed %d: stats %+v, the per-slot tick ends with %+v", algo, seed, sleepy.stats, ref.stats)
			}
			if sleepy.events > ref.events {
				t.Fatalf("%s seed %d: %d engine events, more than the per-slot tick's %d", algo, seed, sleepy.events, ref.events)
			}
			saved += ref.events - sleepy.events
			total += ref.events
		}
		t.Logf("%s: sleeping saved %d of %d engine events", algo, saved, total)
		if saved < total/10 {
			t.Errorf("%s: sleeping saved only %d of %d engine events: the scripts hardly sleep", algo, saved, total)
		}
	}
}
