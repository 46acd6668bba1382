package fpga

import (
	"fmt"

	"marlin/internal/cc"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

// scheduler implements §5.2's line-rate scheduling: one scheduling FIFO
// and one scheduler per port, paced by the TX timer, with rescheduling
// events circulating so that active flows stay in the FIFO exactly once.
// High-priority events (retransmissions) use a separate FIFO (§5.2: "for
// high-priority events such as retransmission and timeouts, another FIFO
// is utilized to prioritize scheduling").
type scheduler struct {
	nic *NIC

	fifo []ring[packet.FlowID]
	prio []ring[packet.FlowID]

	txPending []bool
	txNext    []sim.Time
	txSlot    sim.Duration
	// tickFns holds one prebuilt TX-timer closure per port so kick does not
	// allocate a closure per SCHE emission.
	tickFns []sim.Func

	// budget is how many FIFO entries one TX slot can examine: the slot's
	// cycle count divided by the six-cycle rescheduling loop.
	budget int

	// rateMode is the deployed module's Mode, fixed for the NIC's life.
	rateMode bool
	// sleeps lets a rate-mode FIFO port arm its TX timer past the slots that
	// provably emit nothing (see sleep); tests clear it to run the per-slot
	// reference. asleep marks a port whose timer is so armed, and txTimer
	// is that timer, cancelled by wake.
	sleeps  bool
	asleep  []bool
	txTimer []sim.Handle

	// Cyclic-scan baseline state (Challenge 2 ablation).
	portFlows  [][]packet.FlowID
	scanPos    []int
	scanBudget int
}

func newScheduler(n *NIC) *scheduler {
	ports := n.cfg.Ports
	s := &scheduler{
		nic:       n,
		fifo:      make([]ring[packet.FlowID], ports),
		prio:      make([]ring[packet.FlowID], ports),
		txPending: make([]bool, ports),
		txNext:    make([]sim.Time, ports),
		txSlot:    sim.Interval(n.cfg.TXTimerPPS),
		tickFns:   make([]sim.Func, ports),
		rateMode:  n.cfg.Algorithm.Mode() == cc.RateMode,
	}
	if s.rateMode && n.cfg.Scheduler != CyclicScan {
		s.sleeps = true
		s.asleep = make([]bool, ports)
		s.txTimer = make([]sim.Handle, ports)
	}
	for i := range s.tickFns {
		i := i
		s.tickFns[i] = func() { s.tick(i) }
	}
	cyclesPerSlot := int(float64(ClockHz) / n.cfg.TXTimerPPS)
	s.budget = maxI(1, cyclesPerSlot/6)
	if n.cfg.Scheduler == CyclicScan {
		s.portFlows = make([][]packet.FlowID, ports)
		s.scanPos = make([]int, ports)
		s.scanBudget = maxI(1, cyclesPerSlot)
	}
	return s
}

// register lists a starting flow in its port's scan table (scan mode only).
// A slot stays listed across restarts of its ID; listed is the port it was
// listed on, and an ID restarted on another port moves there, so each flow
// is scanned on its current port only.
func (s *scheduler) register(f *flowState, listed uint16) {
	if s.portFlows == nil || f.inScan && listed == f.port {
		return
	}
	if f.inScan {
		s.unlist(f.flow, listed)
	}
	f.inScan = true
	s.portFlows[f.port] = append(s.portFlows[f.port], f.flow)
}

// unlist removes a flow from a port's scan table, keeping the scan cursor
// on the flow it would have examined next.
func (s *scheduler) unlist(flow packet.FlowID, port uint16) {
	flows := s.portFlows[port]
	for i, fl := range flows {
		if fl != flow {
			continue
		}
		s.portFlows[port] = append(flows[:i], flows[i+1:]...)
		if pos := s.scanPos[port]; pos > i {
			s.scanPos[port] = pos - 1
		} else if pos >= len(flows)-1 {
			s.scanPos[port] = 0
		}
		return
	}
}

// push inserts the flow's scheduling event, keeping at most one event per
// flow in the FIFO (§5.2: "there is no need for duplicate scheduling
// events for the same flow in the scheduling FIFO").
func (s *scheduler) push(f *flowState) {
	if s.portFlows != nil {
		// Scan mode has no event FIFO; just make sure the port scans.
		s.kick(int(f.port))
		return
	}
	if f.inFIFO {
		return
	}
	f.inFIFO = true
	s.wake(int(f.port))
	s.fifo[f.port].push(f.flow)
	s.kick(int(f.port))
}

// pushPriority inserts a retransmission event.
func (s *scheduler) pushPriority(f *flowState) {
	s.wake(int(f.port))
	s.prio[f.port].push(f.flow)
	s.kick(int(f.port))
}

// kick arms the port's TX timer if idle. While the NIC is stalled the
// timer stays unarmed; SetStall(false) re-kicks every port with work.
func (s *scheduler) kick(port int) {
	if s.txPending[port] || s.nic.stalled {
		return
	}
	s.txPending[port] = true
	at := s.txNext[port]
	if now := s.nic.eng.Now(); at < now {
		at = now
	}
	s.nic.eng.ScheduleAt(at, s.tickFns[port])
}

// tick is one TX timer period on a port: emit at most one SCHE packet.
func (s *scheduler) tick(port int) {
	s.txPending[port] = false
	if s.nic.stalled {
		// A slot that was already pending when the stall began fires as a
		// no-op; txNext is left alone so the unstall kick runs immediately.
		return
	}
	now := s.nic.eng.Now()
	if s.sleeps && s.asleep[port] {
		s.catchUp(port, now)
	}
	s.txNext[port] = now.Add(s.txSlot)

	emitted := s.emitPriority(port)
	if !emitted {
		if s.portFlows != nil {
			emitted = s.scanTick(port)
		} else {
			emitted = s.fifoTick(port)
		}
	}
	if !emitted {
		s.nic.stats.SchedWasted++
	}
	if s.hasWork(port) && !(s.sleeps && s.sleep(port)) {
		s.kick(port)
	}
}

// sleep arms the port's TX timer past the slots that provably emit nothing,
// reporting whether there are any. They are provable when the priority FIFO
// is empty and the scheduling FIFO holds at most budget entries, each of an
// active flow with data left: every slot then examines every entry and emits
// once the earliest nextSend is due, the slot the timer is armed for. Before
// it, only a push, a priority push, a flow going inactive, a restart taking
// its event off the port or a stall changes what a slot reads, and each
// wakes the port first.
func (s *scheduler) sleep(port int) bool {
	q := &s.fifo[port]
	if s.prio[port].len() > 0 || q.len() > s.budget {
		return false
	}
	due := sim.Forever
	for i := 0; i < q.len(); i++ {
		f := s.nic.flows.Get(q.at(i))
		if !f.active || s.exhausted(f) {
			return false
		}
		due = min(due, f.nextSend)
	}
	next := s.txNext[port]
	if due <= next {
		return false
	}
	skip := (due.Sub(next) + s.txSlot - 1) / s.txSlot
	s.asleep[port] = true
	s.txPending[port] = true
	s.txTimer[port] = s.nic.eng.ScheduleAt(next.Add(skip*s.txSlot), s.tickFns[port])
	return true
}

// catchUp ends a port's sleep at now, accounting for the slots it skipped
// before now in closed form: each found nothing due, counts as wasted, and
// examined budget entries, rotating the ring by that many.
func (s *scheduler) catchUp(port int, now sim.Time) {
	s.asleep[port] = false
	next := s.txNext[port]
	if now <= next {
		return
	}
	skipped := (now.Sub(next) + s.txSlot - 1) / s.txSlot
	s.nic.stats.SchedWasted += uint64(skipped)
	q := &s.fifo[port]
	for r := int64(skipped) * int64(s.budget) % int64(q.len()); r > 0; r-- {
		q.push(q.pop())
	}
	s.txNext[port] = next.Add(skipped * s.txSlot)
}

// wake ends a port's sleep early. Call it before changing anything an idle
// slot reads: the skipped slots are accounted for and the timer is re-armed
// at the next slot boundary, as the per-slot tick would have left it.
func (s *scheduler) wake(port int) {
	if s.sleeps && s.asleep[port] {
		s.endSleep(port) // kept apart so that this check inlines into push
	}
}

func (s *scheduler) endSleep(port int) {
	s.txTimer[port].Cancel()
	s.txPending[port] = false
	s.catchUp(port, s.nic.eng.Now())
	s.kick(port)
}

// wakeFlow wakes the flow's port, if its event is queued there, before the
// flow goes inactive.
func (s *scheduler) wakeFlow(f *flowState) {
	if f.inFIFO {
		s.wake(int(f.port))
	}
}

// unqueue removes flow's event from port's scheduling FIFO, the rest kept
// in order: an ID restarted on another port takes its event off the old
// one.
func (s *scheduler) unqueue(flow packet.FlowID, port uint16) {
	s.wake(int(port))
	q := &s.fifo[port]
	for k := q.len(); k > 0; k-- {
		if v := q.pop(); v != flow {
			q.push(v)
		}
	}
}

// check reports the first breach of the scheduling FIFOs' invariants: each
// event is of a flow on that port whose inFIFO is set, no flow has two, and
// every flow whose inFIFO is set has one. Scan mode has no FIFOs.
func (s *scheduler) check() error {
	if s.portFlows != nil {
		return nil
	}
	queued := map[packet.FlowID]bool{}
	for port := range s.fifo {
		q := &s.fifo[port]
		for i := 0; i < q.len(); i++ {
			flow := q.at(i)
			f := s.nic.flows.Get(flow)
			switch {
			case f == nil:
				return fmt.Errorf("fpga: port %d's scheduling FIFO holds an event of flow %d, never started", port, flow)
			case int(f.port) != port:
				return fmt.Errorf("fpga: port %d's scheduling FIFO holds an event of flow %d, which is on port %d", port, flow, f.port)
			case !f.inFIFO:
				return fmt.Errorf("fpga: port %d's scheduling FIFO holds an event of flow %d, whose inFIFO is clear", port, flow)
			case queued[flow]:
				return fmt.Errorf("fpga: port %d's scheduling FIFO holds two events of flow %d", port, flow)
			}
			queued[flow] = true
		}
	}
	var err error
	s.nic.flows.Range(func(flow packet.FlowID, f *flowState) {
		if err == nil && f.inFIFO && !queued[flow] {
			err = fmt.Errorf("fpga: flow %d's inFIFO is set with no event queued", flow)
		}
	})
	return err
}

// slept counts the slots that sleeping ports have skipped up to now and
// catchUp has not yet added to SchedWasted.
func (s *scheduler) slept(now sim.Time) uint64 {
	n := uint64(0)
	for port, asleep := range s.asleep {
		if next := s.txNext[port]; asleep && now >= next {
			n += uint64(now.Sub(next)/s.txSlot) + 1
		}
	}
	return n
}

func (s *scheduler) hasWork(port int) bool {
	if s.prio[port].len() > 0 {
		return true
	}
	if s.portFlows != nil {
		// Scan mode: keep ticking while any registered flow is active
		// and eligible-ish (cheap conservative check: any active flow).
		for _, fl := range s.portFlows[port] {
			if s.nic.flows.Get(fl).active {
				return true
			}
		}
		return false
	}
	return s.fifo[port].len() > 0
}

// emitPriority services the retransmission FIFO.
func (s *scheduler) emitPriority(port int) bool {
	q := &s.prio[port]
	for q.len() > 0 {
		flow := q.pop()
		f := s.nic.flows.Get(flow)
		if !f.active || !f.rtxWait || int(f.port) != port {
			continue // no retransmission pending here, or the flow moved ports
		}
		f.rtxWait = false
		s.nic.emitSche(f, f.rtxPSN, port, true)
		// Follow the retransmission with a normal scheduling event so
		// the flow resumes once the window reopens.
		s.push(f)
		return true
	}
	return false
}

// fifoTick examines up to budget scheduling events (§5.2): the first
// eligible flow emits and circulates back as a rescheduling event;
// window-limited flows fall out of the FIFO and are reactivated by their
// next INFO packet; rate-limited flows that are not yet due circulate.
func (s *scheduler) fifoTick(port int) bool {
	q := &s.fifo[port]
	for examined := 0; examined < s.budget && q.len() > 0; examined++ {
		flow := q.pop()
		f := s.nic.flows.Get(flow)
		f.inFIFO = false
		if !f.active || s.exhausted(f) {
			continue // event dropped; flow is inactive
		}
		if s.rateMode {
			if now := s.nic.eng.Now(); now < f.nextSend {
				// Not due yet: circulate without emitting.
				f.inFIFO = true
				q.push(flow)
				continue
			}
			s.emitData(f, port)
			s.paceRate(f)
			f.inFIFO = true
			q.push(flow)
			return true
		}
		// Window mode: inflight must be under cwnd.
		if uint32(cc.SeqDiff(f.nxt, f.una)) >= f.cwnd {
			continue // window-limited: drop the event (§5.2)
		}
		s.emitData(f, port)
		f.inFIFO = true
		q.push(flow)
		return true
	}
	return false
}

// scanTick is the Challenge 2 baseline: cyclically scan the port's flow
// table, one cycle per flow, within the slot's cycle budget.
func (s *scheduler) scanTick(port int) bool {
	flows := s.portFlows[port]
	if len(flows) == 0 {
		return false
	}
	pos := s.scanPos[port]
	for i := 0; i < s.scanBudget && i < len(flows); i++ {
		idx := (pos + i) % len(flows)
		flow := flows[idx]
		f := s.nic.flows.Get(flow)
		if !f.active || int(f.port) != port || s.exhausted(f) {
			continue
		}
		if s.rateMode {
			if s.nic.eng.Now() < f.nextSend {
				continue
			}
			s.scanPos[port] = (idx + 1) % len(flows)
			s.emitData(f, port)
			s.paceRate(f)
			return true
		}
		if uint32(cc.SeqDiff(f.nxt, f.una)) >= f.cwnd {
			continue
		}
		s.scanPos[port] = (idx + 1) % len(flows)
		s.emitData(f, port)
		return true
	}
	s.scanPos[port] = (pos + s.scanBudget) % len(flows)
	s.nic.stats.ScanGiveUps++
	return false
}

// exhausted reports whether the flow has no new data left to schedule.
func (s *scheduler) exhausted(f *flowState) bool {
	return f.end != 0 && !cc.SeqLT(f.nxt, f.end)
}

func (s *scheduler) emitData(f *flowState, port int) {
	s.nic.emitSche(f, f.nxt, port, false)
	f.nxt++
	s.nic.ensureRTO(f)
}

// paceRate advances the flow's next-send deadline by one MTU at its
// current rate. Credit is retained up to one TX slot so that slot
// quantization (emissions only happen on timer ticks) does not compound
// into a systematic rate loss.
func (s *scheduler) paceRate(f *flowState) {
	gap := f.rate.Serialize(packet.WireSize(s.nic.cfg.Params.MTU))
	floor := s.nic.eng.Now().Add(-s.txSlot)
	if f.nextSend < floor {
		f.nextSend = floor
	}
	f.nextSend = f.nextSend.Add(gap)
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
