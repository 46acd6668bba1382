package main

import (
	"fmt"
	"runtime"
	"strings"

	"marlin/internal/aqm"
	"marlin/internal/cc"
	"marlin/internal/fabric"
	"marlin/internal/fleet"
	"marlin/internal/fpga"
	"marlin/internal/measure"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/scenario"
	"marlin/internal/shard"
	"marlin/internal/sim"
	"marlin/internal/tofino"
	wload "marlin/internal/workload"
)

// kernelParams is what a workload tells the layer kernels about itself, so
// that each standalone loop runs the layer the way the workload does.
type kernelParams struct {
	algos        []string // CC modules in use
	flowsPerPort int
	ports        int
	timers       int      // live engine timers: one per flow plus the per-port pacing timers
	aqm          string   // discipline spec, "" for threshold marking
	topos        []string // fabric shapes in use, none for the single switch
	shards       int
	queueBytes   int
	seed         uint64
	scale        int // iteration divisor (-quick)
}

func (w *workload) kernelParams(o options) kernelParams {
	p := kernelParams{seed: o.seed, scale: 1}
	if o.quick {
		p.scale = 50
	}
	if s := w.steady; s != nil {
		p.algos = []string{s.spec.Algorithm}
		p.flowsPerPort, p.ports = s.flowsPerPort, s.spec.Ports
		p.aqm, p.shards, p.queueBytes = s.spec.AQM, s.spec.Shards, s.spec.NetQueueBytes
		if s.spec.Topology != "" {
			p.topos = []string{s.spec.Topology}
		}
	} else {
		s := w.sweep
		p.algos, p.flowsPerPort, p.ports = s.algos, 1, s.template.Ports
		for _, t := range s.topos {
			if t != "" {
				p.topos = append(p.topos, t)
			}
		}
	}
	p.timers = p.ports*p.flowsPerPort + 2*p.ports
	return p
}

// kernelRunner times standalone loops and files them under their metric.
type kernelRunner struct {
	tr    *tracer
	scale int
	out   map[string]float64
}

// total runs fn for n iterations (n shrinks under -quick) inside a span and
// returns the host ns the loop took, for kernels that count their own
// operations.
func (k *kernelRunner) total(metric string, n int, fn func(n int)) float64 {
	sp := k.tr.begin("kernel " + metric)
	t0 := hostNow()
	fn(max(n/k.scale, 1))
	ns := float64(hostNow().Sub(t0).Nanoseconds())
	sp.end()
	return ns
}

// time records host ns per iteration of fn, times unit (1 for ns, 1e-3 for
// us, 1e-6 for ms).
func (k *kernelRunner) time(metric string, n int, unit float64, fn func(n int)) {
	k.out[metric] = k.total(metric, n, fn) / float64(max(n/k.scale, 1)) * unit
}

// release is the node a kernel ends a packet's path at.
var release = netem.NodeFunc(func(p *packet.Packet) { p.Release() })

// runKernels measures every kernel-kind metric for one workload. A layer
// the workload does not use reports 0 for its kernels.
func runKernels(p kernelParams, tr *tracer) (map[string]float64, error) {
	k := &kernelRunner{tr: tr, scale: p.scale, out: map[string]float64{}}
	k.sim(p)
	k.packet()
	if err := k.fpgaAndCC(p); err != nil {
		return nil, err
	}
	if err := k.tofino(p); err != nil {
		return nil, err
	}
	if err := k.netemAndAQM(p); err != nil {
		return nil, err
	}
	if err := k.fabric(p); err != nil {
		return nil, err
	}
	if err := k.shard(p); err != nil {
		return nil, err
	}
	if err := k.campaign(p); err != nil {
		return nil, err
	}
	return k.out, nil
}

// sim: Schedule+Step with as many live timers as the workload keeps, and a
// retransmission-timer style cancel/re-arm.
func (k *kernelRunner) sim(p kernelParams) {
	gap := func(i int) sim.Duration { return sim.Duration(5120 + (i%16)*5120) }
	e := sim.NewEngine()
	for i := 0; i < p.timers; i++ {
		g := gap(i)
		var self sim.Func
		self = func() { e.Schedule(g, self) }
		e.Schedule(g, self)
	}
	k.time("sim.kernel_ns_per_event", 2_000_000, 1, func(n int) {
		for i := 0; i < n; i++ {
			e.Step()
		}
	})

	e = sim.NewEngine()
	noop := func() {}
	rto := make([]sim.Handle, p.timers)
	for i := range rto {
		rto[i] = e.Schedule(500*sim.Microsecond+gap(i), noop)
	}
	k.time("sim.kernel_ns_per_cancel_rearm", 2_000_000, 1, func(n int) {
		for i := 0; i < n; i++ {
			j := i % len(rto)
			rto[j].Cancel()
			rto[j] = e.Schedule(500*sim.Microsecond+gap(i), noop)
		}
	})
}

func (k *kernelRunner) packet() {
	k.time("packet.kernel_ns_per_lifecycle", 4_000_000, 1, func(n int) {
		for i := 0; i < n; i++ {
			packet.NewData(1, uint32(i), 1024, 0).Release()
		}
	})
	src := packet.NewData(1, 7, 1024, 0)
	k.time("packet.kernel_ns_per_clone", 4_000_000, 1, func(n int) {
		for i := 0; i < n; i++ {
			src.Clone().Release()
		}
	})
	src.Release()
}

// fpgaAndCC: the NIC in a closed loop against a stub switch that
// acknowledges every SCHE at once, at the workload's flows per port; and
// the bare CC handler on an ACK/ECN/CNP/timer mix. Several algorithms
// (the sweep) report the mean.
func (k *kernelRunner) fpgaAndCC(p kernelParams) error {
	var nsSche, allocsSche, nsCC float64
	for _, name := range p.algos {
		alg, err := cc.New(name)
		if err != nil {
			return err
		}
		params := cc.DefaultParams(100*sim.Gbps, 1024)
		eng := sim.NewEngine()
		nic, err := fpga.NewNIC(eng, fpga.Config{
			Ports: 1, MaxFlows: p.flowsPerPort, Algorithm: alg, Params: params,
			TXTimerPPS: paperPPS, DisableLog: true,
		})
		if err != nil {
			return err
		}
		var pending []*packet.Packet
		nic.ConnectSche(netem.NodeFunc(func(pk *packet.Packet) { pending = append(pending, pk) }))
		for f := 0; f < p.flowsPerPort; f++ {
			if err := nic.StartFlow(packet.FlowID(f), 0, 0); err != nil {
				return err
			}
		}
		info := nic.InfoIn()
		var m0, m1 runtime.MemStats
		var sche uint64
		ns := k.total("fpga.kernel_ns_per_sche", 50_000, func(n int) {
			runtime.ReadMemStats(&m0)
			before := nic.Stats().ScheTx
			for i := 0; i < n; i++ {
				eng.Run(eng.Now().Add(sim.Microsecond))
				for _, s := range pending {
					ack := packet.Get()
					ack.Type, ack.Flow, ack.Ack, ack.PSN, ack.Size = packet.INFO, s.Flow, s.PSN+1, s.PSN+1, packet.ControlSize
					s.Release()
					info.Receive(ack)
				}
				pending = pending[:0]
			}
			sche = nic.Stats().ScheTx - before
			runtime.ReadMemStats(&m1)
		})
		nsSche += ratio(ns, float64(sche))
		allocsSche += ratio(float64(m1.Mallocs-m0.Mallocs), float64(sche))

		var cust, slow cc.State
		alg.InitFlow(&cust, &slow, &params)
		in := cc.Input{MTU: 1024, Params: &params, Cust: &cust, Slow: &slow,
			Cwnd: params.InitCwnd, Rate: 100 * sim.Gbps}
		var out cc.Output
		k.time("cc.kernel_ns_per_event", 2_000_000, 1, func(n int) {
			for i := 0; i < n; i++ {
				in.Type, in.Flags, in.TimerID = cc.EvRx, 0, 0
				switch {
				case i%128 == 127:
					in.Type, in.TimerID = cc.EvTimer, cc.TimerAlpha
				case i%64 == 63:
					in.Flags = packet.FlagCNPNotify
				case i%16 == 15:
					in.Flags = packet.FlagECNEcho
				}
				in.Una, in.Nxt = uint32(i), uint32(i)+in.Cwnd
				in.PSN, in.Ack = uint32(i), uint32(i)+1
				in.ProbedRTT = 10 * sim.Microsecond
				in.Timestamp = sim.Time(0).Add(sim.Duration(i) * 100 * sim.Nanosecond)
				out.Reset()
				alg.OnEvent(&in, &out)
				if out.SetCwnd {
					in.Cwnd = max(out.Cwnd, 1)
				}
				if out.SetRate {
					in.Rate = out.Rate
				}
			}
		})
		nsCC += k.out["cc.kernel_ns_per_event"]
	}
	n := float64(len(p.algos))
	k.out["fpga.kernel_ns_per_sche"] = nsSche / n
	k.out["fpga.kernel_allocs_per_sche"] = allocsSche / n
	k.out["cc.kernel_ns_per_event"] = nsCC / n
	return nil
}

// tofino: the three pipeline stages a DATA packet's life crosses, each fed
// directly and ending at a releasing node.
func (k *kernelRunner) tofino(p kernelParams) error {
	alg, err := cc.New(p.algos[0])
	if err != nil {
		return err
	}
	mode := tofino.TCPReceiver
	if alg.Mode() == cc.RateMode {
		mode = tofino.RoCEReceiver
	}
	plan, err := tofino.NewPlan(1024, 100*sim.Gbps)
	if err != nil {
		return err
	}
	eng := sim.NewEngine()
	pl, err := tofino.NewPipeline(eng, tofino.Config{Plan: plan, QueueDepth: 1 << 12, Receiver: mode})
	if err != nil {
		return err
	}
	ports := plan.DataPorts
	for port := 0; port < ports; port++ {
		pl.ConnectDataPort(port, release)
		pl.ConnectAckPort(port, release)
		if err := pl.BindFlow(packet.FlowID(port), port); err != nil {
			return err
		}
	}
	pl.ConnectInfo(release)
	psn := make([]uint32, ports)

	scheIn := pl.ScheIn()
	k.time("tofino.kernel_ns_per_sche_to_data", 1_000_000, 1, func(n int) {
		for i := 0; i < n; i++ {
			port := i % ports
			scheIn.Receive(packet.NewSche(packet.FlowID(port), psn[port], port, eng.Now()))
			psn[port]++
			if i%512 == 511 {
				eng.RunAll()
			}
		}
		eng.RunAll()
	})
	dataIn := make([]netem.Node, ports)
	for port := range dataIn {
		dataIn[port] = pl.DataIn(port)
		psn[port] = 0
	}
	k.time("tofino.kernel_ns_per_data_to_ack", 1_000_000, 1, func(n int) {
		for i := 0; i < n; i++ {
			port := i % ports
			dataIn[port].Receive(packet.NewData(packet.FlowID(port), psn[port], 1024, eng.Now()))
			psn[port]++
		}
	})
	ackIn := pl.AckIn()
	k.time("tofino.kernel_ns_per_ack_to_info", 1_000_000, 1, func(n int) {
		for i := 0; i < n; i++ {
			flow := packet.FlowID(i % ports)
			ackIn.Receive(packet.NewAck(flow, uint32(i), uint32(i)+1, eng.Now()))
		}
	})
	return nil
}

// netemAndAQM: one link hop and one switch hop with the workload's queue
// configuration, and the discipline's two hooks when the workload has one.
func (k *kernelRunner) netemAndAQM(p kernelParams) error {
	cfg := netem.LinkConfig{Rate: 100 * sim.Gbps, Delay: 2 * sim.Microsecond,
		QueueBytes: p.queueBytes, RNG: sim.NewRand(p.seed)}
	var spec aqm.Spec
	if p.aqm != "" {
		var err error
		if spec, err = aqm.ParseSpec(p.aqm); err != nil {
			return err
		}
		cfg.AQM = spec
	} else {
		cfg.ECN = netem.StepMarking(65, 1024)
	}
	// Bursts of 32 frames keep a standing queue without overflowing it.
	hop := func(metric string, eng *sim.Engine, in netem.Node) {
		k.time(metric, 1_000_000, 1, func(n int) {
			for i := 0; i < n; i++ {
				in.Receive(packet.NewDataECT(packet.FlowID(i%16), uint32(i), 1024, eng.Now(), packet.ECT1))
				if i%32 == 31 {
					eng.RunAll()
				}
			}
			eng.RunAll()
		})
	}
	eng := sim.NewEngine()
	hop("netem.kernel_ns_per_link_hop", eng, netem.NewLink(eng, cfg, release))
	eng = sim.NewEngine()
	sw := netem.NewSwitch("kernel", netem.RouteAllTo(0))
	sw.AddPort(eng, cfg, release)
	hop("netem.kernel_ns_per_switch_hop", eng, sw)

	k.out["aqm.kernel_ns_per_enqueue"], k.out["aqm.kernel_ns_per_dequeue"] = 0, 0
	if !spec.Enabled() {
		return nil
	}
	const capacity = 256 << 10
	disc := spec.Build(capacity, sim.NewRand(p.seed))
	pk := packet.NewDataECT(1, 7, 1024, 0, packet.ECT1)
	band := disc.Classify(pk)
	view := aqm.QueueView{Bytes: capacity / 2, Packets: 128, Capacity: capacity}
	view.BandBytes[band], view.BandPackets[band] = capacity/2, 128
	at := func(i int) sim.Time { return sim.Time(0).Add(sim.Duration(i) * sim.Microsecond) }
	k.time("aqm.kernel_ns_per_enqueue", 4_000_000, 1, func(n int) {
		for i := 0; i < n; i++ {
			view.HeadEnqAt[band] = at(i).Add(-20 * sim.Microsecond)
			disc.OnEnqueue(pk, band, view, at(i))
		}
	})
	k.time("aqm.kernel_ns_per_dequeue", 4_000_000, 1, func(n int) {
		for i := 0; i < n; i++ {
			view.HeadEnqAt[band] = at(i).Add(-20 * sim.Microsecond)
			disc.PickBand(view, at(i))
			disc.OnDequeue(pk, band, 20*sim.Microsecond, view, at(i))
		}
	})
	pk.Release()
	return nil
}

// fabric: building the workload's topology, and one packet crossing it idle
// from host 0 to the host furthest away. Several shapes report the mean.
func (k *kernelRunner) fabric(p kernelParams) error {
	k.out["fabric.build_ms"], k.out["fabric.kernel_ns_per_traversal"] = 0, 0
	var buildMs, traversal float64
	for _, topo := range p.topos {
		spec, err := fabric.ParseSpec(topo)
		if err != nil {
			return err
		}
		sinks := make([]netem.Node, p.ports)
		for i := range sinks {
			sinks[i] = release
		}
		var eng *sim.Engine
		var fab *fabric.Fabric
		k.time("fabric.build_ms", 40, 1e-6, func(n int) {
			for i := 0; i < n; i++ {
				eng = sim.NewEngine()
				fab, err = fabric.Build(eng, fabric.Config{
					Spec: spec, Hosts: p.ports, Seed: p.seed, Sinks: sinks,
					Dst: func(pk *packet.Packet) int { return p.ports - 1 },
				})
				if err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		buildMs += k.out["fabric.build_ms"]
		up := fab.HostUplink(0)
		k.time("fabric.kernel_ns_per_traversal", 400_000, 1, func(n int) {
			for i := 0; i < n; i++ {
				up.Send(packet.NewData(packet.FlowID(i%64), uint32(i), 1024, eng.Now()))
				if i%32 == 31 {
					eng.RunAll()
				}
			}
			eng.RunAll()
		})
		traversal += k.out["fabric.kernel_ns_per_traversal"]
	}
	if n := float64(len(p.topos)); n > 0 {
		k.out["fabric.build_ms"], k.out["fabric.kernel_ns_per_traversal"] = buildMs/n, traversal/n
	}
	return nil
}

// shard: the cost of a barrier round with next to nothing to do, and of one
// packet crossing a partition boundary, on two partitions with the
// workload's worker count.
func (k *kernelRunner) shard(p kernelParams) error {
	k.out["shard.kernel_ns_per_idle_round"], k.out["shard.kernel_ns_per_handoff"] = 0, 0
	if p.shards == 0 {
		return nil
	}
	const lookahead = 2 * sim.Microsecond
	build := func(perTick int) (*shard.Runner, error) {
		parts := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
		r, err := shard.New(sim.NewEngine(), parts, lookahead, p.shards)
		if err != nil {
			return nil, err
		}
		portal := r.Portal(parts[0], parts[1], release)
		// Each partition ticks once per lookahead, so every round has
		// exactly one event per partition; partition 0 also hands
		// perTick packets across.
		for i, e := range parts {
			i, e := i, e
			var tick sim.Func
			tick = func() {
				if i == 0 {
					for j := 0; j < perTick; j++ {
						portal.Carry(packet.NewData(1, uint32(j), 1024, e.Now()), e.Now().Add(lookahead))
					}
				}
				e.Schedule(lookahead, tick)
			}
			e.Schedule(lookahead, tick)
		}
		return r, nil
	}
	run := func(r *shard.Runner, n int) {
		r.Run(sim.Time(0).Add(sim.Duration(n) * lookahead))
	}
	idle, err := build(0)
	if err != nil {
		return err
	}
	ns := k.total("shard.kernel_ns_per_idle_round", 100_000, func(n int) { run(idle, n) })
	idleNs := ratio(ns, float64(idle.Stats().Rounds))
	k.out["shard.kernel_ns_per_idle_round"] = idleNs

	const perTick = 16
	busy, err := build(perTick)
	if err != nil {
		return err
	}
	ns = k.total("shard.kernel_ns_per_handoff", 100_000, func(n int) { run(busy, n) })
	st := busy.Stats()
	k.out["shard.kernel_ns_per_handoff"] = ratio(ns-idleNs*float64(st.Rounds), float64(st.Carried))
	return nil
}

// campaign: the layers only short complete tests lean on.
func (k *kernelRunner) campaign(p kernelParams) error {
	gen, err := wload.NewGenerator(wload.WebSearch(), wload.PoissonOpenLoop, 10*sim.Microsecond, sim.NewRand(p.seed))
	if err != nil {
		return err
	}
	k.time("workload.kernel_ns_per_arrival", 2_000_000, 1, func(n int) {
		for i := 0; i < n; i++ {
			gen.Next()
		}
	})
	var rec measure.FCTRecorder
	k.time("measure.kernel_ns_per_fct_record", 2_000_000, 1, func(n int) {
		for i := 0; i < n; i++ {
			rec.Add(measure.FCTRecord{Flow: packet.FlowID(i), SizePkts: 32, FCT: sim.Duration(i) * sim.Nanosecond})
		}
	})
	rng := sim.NewRand(p.seed)
	samples := make([]float64, 10_000)
	for i := range samples {
		samples[i] = rng.Float64()
	}
	k.time("measure.kernel_us_per_cdf_10k", 200, 1e-3, func(n int) {
		for i := 0; i < n; i++ {
			measure.NewCDF(samples).Percentile(0.99)
		}
	})

	script := strings.Join([]string{
		"# parse kernel",
		"set algo dctcp", "set ports 4", "set ecn 65", "set topology leafspine:4x2",
		"set fault linkdown leaf0->spine1 at 1ms for 200us",
		"set pattern incast:period=1ms,fanin=3,victim=1,size=80",
		"at 0ms start 0 tx 0 rx 2", "at 0ms start 1 tx 1 rx 3", "at 1ms stop 0",
		"run 2ms", "expect false_losses == 0", "expect faults_recovered == 1",
	}, "\n")
	var perr error
	k.time("scenario.kernel_us_per_parse", 20_000, 1e-3, func(n int) {
		for i := 0; i < n && perr == nil; i++ {
			_, perr = scenario.Parse(script)
		}
	})
	if perr != nil {
		return perr
	}

	var ferr error
	k.time("fleet.kernel_us_per_job", 20_000, 1e-3, func(n int) {
		jobs := make([]fleet.Job, n)
		for i := range jobs {
			jobs[i] = fleet.Job{ID: fmt.Sprint(i), Run: func() (*fleet.Output, error) { return &fleet.Output{}, nil }}
		}
		_, ferr = fleet.Run(jobs, fleet.Options{Workers: 1})
	})
	return ferr
}
