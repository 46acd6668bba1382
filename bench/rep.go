package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"runtime"
	"time"

	"marlin/internal/controlplane"
	"marlin/internal/core"
	"marlin/internal/fabric"
	"marlin/internal/fleet"
	"marlin/internal/measure"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

// Indices into counters: every public register the count-kind metrics and
// the output checks are built from.
const (
	cEvents = iota
	cDataTx
	cDataRx
	cScheRx
	cScheDrops
	cAckTx
	cCnpTx
	cOutOfOrderRx
	cScheTx
	cInfoRx
	cRtxTx
	cTimeouts
	cSchedWasted
	cNICEvents
	cHops // packets received by tested-network switches
	cNetDrops
	cNetMarks
	cAQMMarks
	cAQMDrops
	cDeliveredBytes // bytes leaving the last hop toward the receiver ports
	cShardRounds
	cShardCarried
	cFlowsStarted
	cFCTs
	nCounters
)

type counters [nCounters]uint64

func (a counters) minus(b counters) (d counters) {
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return d
}

func (a counters) plus(b counters) (d counters) {
	for i := range a {
		d[i] = a[i] + b[i]
	}
	return d
}

// readCounters reads the registers through the tester's public accessors.
func readCounters(t *core.Tester) counters {
	var c counters
	sw, nic, sh := t.PipelineCounters(), t.NICStats(), t.ShardStats()
	c[cEvents] = t.EventsExecuted()
	c[cDataTx], c[cDataRx] = sw.DataTx, sw.DataRx
	c[cScheRx], c[cScheDrops] = sw.ScheRx, sw.ScheDrops
	c[cAckTx], c[cCnpTx], c[cOutOfOrderRx] = sw.AckTx, sw.CnpTx, sw.OutOfOrderRx
	c[cScheTx], c[cInfoRx], c[cRtxTx] = nic.ScheTx, nic.InfoRx, nic.RtxTx
	c[cTimeouts], c[cSchedWasted], c[cNICEvents] = nic.Timeouts, nic.SchedWasted, nic.EventsHandled
	for _, s := range t.NetworkStats() {
		c[cHops] += s.RxPackets
		for _, p := range s.Ports {
			c[cNetDrops] += p.Drops
			c[cNetMarks] += p.ECNMarks
			if p.AQM != nil {
				c[cAQMMarks] += p.AQM.Marks
				c[cAQMDrops] += p.AQM.Drops
			}
		}
	}
	for i := 0; i < t.Plan().DataPorts; i++ {
		c[cDeliveredBytes] += t.ForwardLink(i).Stats().TxBytes
	}
	c[cShardRounds], c[cShardCarried] = sh.Rounds, sh.Carried
	if d := t.PatternDriver(); d != nil {
		c[cFlowsStarted] = d.Started()
	}
	c[cFCTs] = uint64(t.FCTs.Len())
	return c
}

// rep is what one repetition of a workload measured.
type rep struct {
	setup       time.Duration // first library call to the start of the first measured slice (sweep: median job set-up)
	wall        time.Duration // measured window (sweep: the whole rep)
	mallocs     uint64
	allocBytes  uint64
	gcCycles    uint32
	gcPause     time.Duration
	sliceNsPkt  []float64    // host ns per DATA packet of each slice (sweep: each job)
	simWindow   sim.Duration // simulated time the measured window covers
	delta       counters     // registers over the measured window
	total       counters     // registers since deployment
	planPPS     float64
	snap        controlplane.Snapshot
	losses      controlplane.LossReport
	ecmp        float64 // fabric.Imbalance at readout
	faultsOK    int
	faultTTR    sim.Duration
	digest      string
	checks      []check
	heapLiveMiB float64 // steady: live heap at the end of the measured window

	// Filled on the traced rep only.
	validate, deploy, startFlows, readRegisters time.Duration
	flowsStarted                                int
	deployAllocs                                uint64
	heapPerTesterMiB                            float64
}

func (r *rep) nsPerPkt() float64 {
	return ratio(float64(r.wall.Nanoseconds()), float64(r.delta[cDataTx]))
}

// repOpts selects the extras the traced rep pays for.
type repOpts struct {
	tr   *tracer     // nil: record no spans
	prof *cpuProfile // nil: take no CPU profile
}

func heapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// digester hashes the simulated outputs of a rep: everything a user reads
// back from a finished test.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{sha256.New()} }

func (d *digester) add(t *core.Tester, snap controlplane.Snapshot, losses controlplane.LossReport, fcts []measure.FCTRecord) error {
	enc := json.NewEncoder(d.h)
	for _, v := range []any{snap, losses, fcts, t.EventsExecuted()} {
		if err := enc.Encode(v); err != nil {
			return fmt.Errorf("sim_digest: %w", err)
		}
	}
	return nil
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// deployAndStart is the set-up every test pays: Validate, Deploy (which
// installs the spec's patterns and faults) and the StartFlow calls. The span
// durations (zero when not tracing) accumulate on r.
func (r *rep) deployAndStart(spec controlplane.Spec, o repOpts, txPorts, flowsPerPort int, rx func(int) int) (*core.Tester, error) {
	sp := o.tr.begin("controlplane.validate")
	err := spec.Validate()
	r.validate += sp.end()
	if err != nil {
		return nil, err
	}
	sp = o.tr.begin("controlplane.deploy")
	t, err := spec.Deploy(sim.NewEngine())
	r.deploy += sp.end()
	if err != nil {
		return nil, err
	}
	sp = o.tr.begin("core.start_flows")
	err = startFlows(t, txPorts, flowsPerPort, rx)
	r.startFlows += sp.end()
	r.flowsStarted += txPorts * flowsPerPort
	return t, err
}

func startFlows(t *core.Tester, txPorts, flowsPerPort int, rx func(int) int) error {
	flow := packet.FlowID(0)
	for tx := 0; tx < txPorts; tx++ {
		for f := 0; f < flowsPerPort; f++ {
			if err := t.StartFlow(flow, tx, rx(tx), 0); err != nil {
				return err
			}
			flow++
		}
	}
	return nil
}

// readout reads every register a user would, digests it, and runs the
// common checks.
func (r *rep) readout(t *core.Tester, o repOpts, dg *digester) error {
	sp := o.tr.begin("controlplane.read_registers")
	r.snap = controlplane.ReadRegisters(t)
	r.losses = controlplane.ReadLosses(t)
	r.readRegisters += sp.end()
	sp = o.tr.begin("measure.fct_readout")
	fcts := t.FCTs.Records()
	sp.end()
	r.checks = append(r.checks, commonChecks(r.snap, r.losses)...)
	return dg.add(t, r.snap, r.losses, fcts)
}

// account books what the runtime did between two MemStats readings taken
// at the measured window's boundaries.
func (r *rep) account(m0, m1 *runtime.MemStats) {
	r.mallocs, r.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	r.gcCycles, r.gcPause = m1.NumGC-m0.NumGC, time.Duration(m1.PauseTotalNs-m0.PauseTotalNs)
}

// run executes one rep of a steady workload.
func (w *steady) run(seed uint64, o repOpts) (*rep, error) {
	r := &rep{simWindow: sim.Duration(w.slices) * w.slice}
	spec := w.spec
	spec.Seed = seed
	traced := o.tr != nil
	var heapBefore float64
	var m0, m1 runtime.MemStats
	if traced {
		heapBefore = heapMiB()
		runtime.ReadMemStats(&m0)
	}

	t0 := hostNow()
	t, err := r.deployAndStart(spec, o, w.txPorts, w.flowsPerPort, w.rx)
	if err != nil {
		return nil, err
	}
	if traced {
		runtime.ReadMemStats(&m1)
		r.deployAllocs = m1.Mallocs - m0.Mallocs
		r.heapPerTesterMiB = heapMiB() - heapBefore
	}
	sp := o.tr.begin("warmup")
	start := sim.Time(0).Add(w.warmup)
	t.Run(start)
	sp.end()
	r.setup = hostNow().Sub(t0)

	runtime.ReadMemStats(&m0)
	c0 := readCounters(t)
	if err := o.prof.start(); err != nil {
		return nil, err
	}
	begin := hostNow()
	prev, prevPkts := begin, c0[cDataTx]
	r.sliceNsPkt = make([]float64, 0, w.slices)
	for i := 1; i <= w.slices; i++ {
		sp := o.tr.beginIdx("run.slice", i-1)
		t.Run(start.Add(sim.Duration(i) * w.slice))
		sp.end()
		now, pkts := hostNow(), t.PipelineCounters().DataTx
		r.sliceNsPkt = append(r.sliceNsPkt, ratio(float64(now.Sub(prev).Nanoseconds()), float64(pkts-prevPkts)))
		prev, prevPkts = now, pkts
	}
	r.wall = prev.Sub(begin)
	o.prof.stop()
	runtime.ReadMemStats(&m1)
	r.account(&m0, &m1)
	r.total = readCounters(t)
	r.delta = r.total.minus(c0)
	r.planPPS = t.Plan().DataPPSPerPort
	r.heapLiveMiB = heapMiB()

	dg := newDigester()
	if err := r.readout(t, o, dg); err != nil {
		return nil, err
	}
	r.digest = dg.sum()
	r.ecmp = fabric.Imbalance(t.ECMPPaths())
	for _, f := range r.snap.Faults {
		if f.Recovered {
			r.faultsOK++
			r.faultTTR = max(r.faultTTR, f.TimeToRecover)
		}
	}
	r.checks = append(r.checks, w.checks(r, w)...)
	runtime.KeepAlive(t)
	return r, nil
}

// run executes one rep of the sweep: every job's set-up, run and readout is
// inside the measured wall time, because that is what a campaign pays.
func (s *sweep) run(seed uint64, o repOpts) (*rep, error) {
	r := &rep{}
	traced := o.tr != nil
	dg := newDigester()
	var setupsNs []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := o.prof.start(); err != nil {
		return nil, err
	}
	begin := hostNow()
	for round := 0; round < s.rounds; round++ {
		fctsBefore := r.total[cFCTs]
		for cell := 0; cell < s.cells(); cell++ {
			id := fmt.Sprintf("%d/%d", round, cell)
			jsp := o.tr.begin("job " + id)
			spec := s.cellSpec(cell, fleet.DeriveSeed(seed, id))
			var d0, d1 runtime.MemStats
			if traced {
				runtime.ReadMemStats(&d0)
			}
			j0 := hostNow()
			t, err := r.deployAndStart(spec, o, s.bgFlows, 1, s.bgRx)
			if err != nil {
				return nil, fmt.Errorf("job %s: %w", id, err)
			}
			setupsNs = append(setupsNs, float64(hostNow().Sub(j0).Nanoseconds()))
			if traced {
				runtime.ReadMemStats(&d1)
				r.deployAllocs += d1.Mallocs - d0.Mallocs
			}
			sp := o.tr.begin("run.slice")
			t.Run(sim.Time(0).Add(s.horizon))
			sp.end()
			c := readCounters(t)
			r.total = r.total.plus(c)
			if err := r.readout(t, o, dg); err != nil {
				return nil, err
			}
			r.ecmp = max(r.ecmp, fabric.Imbalance(t.ECMPPaths()))
			r.checks = append(r.checks, checkf("job_data_tx", c[cDataTx] > 0, "job %s: %d", id, c[cDataTx]))
			r.sliceNsPkt = append(r.sliceNsPkt, ratio(float64(hostNow().Sub(j0).Nanoseconds()), float64(c[cDataTx])))
			jsp.end()
		}
		fcts := r.total[cFCTs] - fctsBefore
		r.checks = append(r.checks, checkf("round_fcts", fcts > 0, "round %d: %d", round, fcts))
	}
	r.wall = hostNow().Sub(begin)
	o.prof.stop()
	runtime.ReadMemStats(&m1)
	r.account(&m0, &m1)
	r.delta = r.total
	jobs := s.rounds * s.cells()
	r.simWindow = sim.Duration(jobs) * s.horizon
	r.setup = time.Duration(median(setupsNs))
	r.digest = dg.sum()
	return r, nil
}

// memoryRound runs one untimed round of the sweep with a forced collection
// around every job: the live heap a job reaches before its tester is
// dropped (max over cells) and what one deployed tester holds (mean). A
// timed rep cannot take these readings without paying for the collections.
func (s *sweep) memoryRound(seed uint64) (heapLiveMiB, heapPerTesterMiB float64, err error) {
	for cell := 0; cell < s.cells(); cell++ {
		before := heapMiB()
		spec := s.cellSpec(cell, fleet.DeriveSeed(seed, fmt.Sprintf("0/%d", cell)))
		t, err := new(rep).deployAndStart(spec, repOpts{}, s.bgFlows, 1, s.bgRx)
		if err != nil {
			return 0, 0, err
		}
		heapPerTesterMiB += (heapMiB() - before) / float64(s.cells())
		t.Run(sim.Time(0).Add(s.horizon))
		heapLiveMiB = max(heapLiveMiB, heapMiB())
		runtime.KeepAlive(t)
	}
	return heapLiveMiB, heapPerTesterMiB, nil
}

func (s *sweep) bgRx(tx int) int { return tx + s.bgFlows }
