// Command benchjson runs the perf-harness benchmark suite through
// testing.Benchmark and emits one machine-readable JSON document — the
// generator of the checked-in BENCH_baseline.json.
//
// The scheduler mixes run twice per shape, once on the timer-wheel Engine
// and once on the reference heap RefEngine (the pre-overhaul scheduler,
// kept in-tree as the differential-testing oracle), so a single run
// captures true before/after numbers for the event core. Paths whose
// "before" implementation no longer exists (packet construction before
// pooling, the whole tester before the allocation audit) carry recorded
// pre-overhaul measurements instead, taken on the same hardware at the
// seed commit and embedded under "recorded_pre_overhaul".
//
// Usage:
//
//	go run ./cmd/benchjson > BENCH_baseline.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"marlin"
	"marlin/internal/aqm"
	"marlin/internal/cc"
	"marlin/internal/fpga"
	"marlin/internal/lint"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/sim"
	"marlin/internal/tofino"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is the whole document.
type Report struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	// CPUs is runtime.NumCPU() on the measuring machine. The shard/scaling_*
	// speedups are only meaningful when CPUs covers the worker count — CI
	// gates its >=2x assertion on this field.
	CPUs int `json:"cpus"`
	// Results holds the live measurements from this run. engine/* and
	// refengine/* pairs are the after/before of the scheduler overhaul.
	Results []Result `json:"results"`
	// Speedups are ns/op ratios refengine/engine per scheduler mix.
	Speedups map[string]float64 `json:"speedups"`
	// RecordedPreOverhaul are measurements taken at the seed commit,
	// before pooling and the allocation audit, for paths whose old
	// implementation is gone. Units match Result.
	RecordedPreOverhaul []Result `json:"recorded_pre_overhaul"`
}

func steadyGap(i int) sim.Duration { return sim.Duration(5120 + (i%16)*5120) }

func benchEngineSteady(b *testing.B) {
	e := sim.NewEngine()
	for i := 0; i < 1024; i++ {
		gap := steadyGap(i)
		var self sim.Func
		self = func() { e.Schedule(gap, self) }
		e.Schedule(gap, self)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func benchRefEngineSteady(b *testing.B) {
	e := sim.NewRefEngine()
	for i := 0; i < 1024; i++ {
		gap := steadyGap(i)
		var self sim.Func
		self = func() { e.Schedule(gap, self) }
		e.Schedule(gap, self)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func benchEngineChurn(b *testing.B) {
	e := sim.NewEngine()
	const chains = 256
	rto := make([]sim.Handle, chains)
	noop := func() {}
	for i := 0; i < chains; i++ {
		gap := steadyGap(i)
		id := i
		var self sim.Func
		self = func() {
			rto[id].Cancel()
			rto[id] = e.Schedule(500*sim.Microsecond, noop)
			e.Schedule(gap, self)
		}
		e.Schedule(gap, self)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func benchRefEngineChurn(b *testing.B) {
	e := sim.NewRefEngine()
	const chains = 256
	rto := make([]sim.RefHandle, chains)
	noop := func() {}
	for i := 0; i < chains; i++ {
		gap := steadyGap(i)
		id := i
		var self sim.Func
		self = func() {
			rto[id].Cancel()
			rto[id] = e.Schedule(500*sim.Microsecond, noop)
			e.Schedule(gap, self)
		}
		e.Schedule(gap, self)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// benchFreshEngine measures what every short test pays for its event core:
// a new engine, 10,000 events over 250 us of simulated time (four
// self-rescheduling chains with ~100 ns gaps, which walk the whole wheel
// seven times over), run to the horizon, dropped. The wheel's slots are list
// heads inside the Engine, so the only allocations are the engine, the four
// event records, the ready heap's first growth and this function's own
// closure and gap table; CI asserts allocs/op <= 16.
func benchFreshEngine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		gaps := [4]sim.Duration{97 * sim.Nanosecond, 98 * sim.Nanosecond, 99 * sim.Nanosecond, 100 * sim.Nanosecond}
		var tick sim.ArgFunc
		tick = func(gap any) { e.ScheduleArg(*gap.(*sim.Duration), tick, gap) }
		for c := range gaps {
			e.ScheduleArg(0, tick, &gaps[c])
		}
		if n := e.Run(sim.Time(250 * sim.Microsecond)); n < 10_000 {
			panic(fmt.Sprintf("fresh engine ran %d events, want >= 10000", n))
		}
	}
}

// benchFarTimerRearm is the retransmission-timer pattern at the paper's
// flow count: 65,536 timers armed 500 us ahead (15 frames, so level 1 of the
// wheel), each op cancelling one and re-arming it while a 40 us tick — a
// round of ACKs — moves the clock on. Both halves are list operations on the
// event record; CI asserts 0 allocs/op.
func benchFarTimerRearm(b *testing.B) {
	e := sim.NewEngine()
	const timers = 1 << 16
	noop := func() {}
	rto := make([]sim.Handle, timers)
	for i := range rto {
		rto[i] = e.Schedule(500*sim.Microsecond, noop)
	}
	var tick sim.Func
	tick = func() { e.Schedule(40*sim.Microsecond, tick) }
	tick()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (timers - 1)
		if j == 0 {
			e.Run(e.Now().Add(40 * sim.Microsecond))
		}
		rto[j].Cancel()
		rto[j] = e.Schedule(500*sim.Microsecond, noop)
	}
}

func benchPacketLifecycle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := packet.NewData(1, uint32(i), 1024, 0)
		p.Release()
	}
}

func benchPacketClone(b *testing.B) {
	p := packet.NewData(1, 7, 1024, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := p.Clone()
		q.Release()
	}
	b.StopTimer()
	p.Release()
}

// benchAQMEnqueue measures one discipline's admission decision under a
// half-full queue with an advancing clock — the per-packet cost every
// emulated egress port pays when an AQM is installed. The enqueue hook is
// on the packet hot path, so the suite asserts 0 allocs/op in CI.
func benchAQMEnqueue(spec string) func(*testing.B) {
	return func(b *testing.B) {
		s, err := aqm.ParseSpec(spec)
		if err != nil {
			panic(err)
		}
		const capacity = 256 << 10
		a := s.Build(capacity, sim.NewRand(1))
		p := packet.NewDataECT(1, 7, 1024, 0, packet.ECT1)
		defer p.Release()
		view := aqm.QueueView{Bytes: capacity / 2, Packets: 128, Capacity: capacity}
		view.BandBytes[0] = capacity / 2
		view.BandPackets[0] = 128
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now := sim.Time(0).Add(sim.Duration(i) * sim.Microsecond)
			view.HeadEnqAt[0] = now.Add(-20 * sim.Microsecond)
			a.OnEnqueue(p, 0, view, now)
		}
	}
}

func benchPipelineFig6(b *testing.B) {
	eng := sim.NewEngine()
	plan, err := tofino.NewPlan(1024, 100*sim.Gbps)
	if err != nil {
		panic(err)
	}
	pl, err := tofino.NewPipeline(eng, tofino.Config{Plan: plan, QueueDepth: 1 << 12})
	if err != nil {
		panic(err)
	}
	drop := netem.NodeFunc(func(p *packet.Packet) { p.Release() })
	for port := 0; port < plan.DataPorts; port++ {
		pl.ConnectDataPort(port, drop)
		if err := pl.BindFlow(packet.FlowID(port), port); err != nil {
			panic(err)
		}
	}
	in := pl.ScheIn()
	psn := make([]uint32, plan.DataPorts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		port := i % plan.DataPorts
		in.Receive(packet.NewSche(packet.FlowID(port), psn[port], port, 0))
		psn[port]++
		if i%512 == 511 {
			eng.RunAll()
		}
	}
	eng.RunAll()
}

// benchSlowPath64k measures the NIC at the flow density of the paper's
// headline point — 65,532 flows over 12 ports is 5,461 per port — with
// DCTCP's alpha update on the Slow Path: a closed loop where every SCHE
// comes straight back as the INFO acknowledging it, so with one window per
// flow turn every ACK ends an observation window and posts a Slow Path
// event. One op is 1 us of simulated time (~12 ACKs, Slow Path posts and
// executions). Posts and timer arms go through the NIC's pooled, typed
// event records; CI asserts 0 allocs/op.
func benchSlowPath64k(b *testing.B) {
	const flows = 5461
	eng := sim.NewEngine()
	alg, err := cc.New("dctcp")
	if err != nil {
		panic(err)
	}
	params := cc.DefaultParams(100*sim.Gbps, 1024)
	if !params.UseSlowPath {
		panic("DefaultParams no longer routes DCTCP's alpha through the Slow Path")
	}
	nic, err := fpga.NewNIC(eng, fpga.Config{
		Ports: 1, Algorithm: alg, Params: params, TXTimerPPS: 11.97e6,
		LogCapacity: 1 << 10, // a full ring of traced flows: retention stays on and stops growing
	})
	if err != nil {
		panic(err)
	}
	info := nic.InfoIn()
	nic.ConnectSche(netem.NodeFunc(func(p *packet.Packet) {
		// The SCHE packet itself becomes the INFO: the loop allocates nothing.
		p.Type, p.Ack, p.Flags = packet.INFO, p.PSN+1, 0
		info.Receive(p)
	}))
	for f := 0; f < flows; f++ {
		if err := nic.TraceFlow(packet.FlowID(f)); err != nil {
			panic(err)
		}
		if err := nic.StartFlow(packet.FlowID(f), 0, 0); err != nil {
			panic(err)
		}
	}
	eng.Run(sim.Time(2 * sim.Millisecond)) // every flow has cycled; rings and pools are full
	before := nic.Stats().SlowPathRuns
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(eng.Now().Add(sim.Microsecond))
	}
	b.StopTimer()
	if runs := nic.Stats().SlowPathRuns - before; runs < uint64(b.N) {
		panic(fmt.Sprintf("%d Slow Path executions in %d us: the benchmark is not on the Slow Path", runs, b.N))
	}
}

func benchTesterPacketRate(b *testing.B) {
	tr, err := marlin.NewTester(marlin.TestConfig{Algorithm: "dctcp", Ports: 2, Seed: 1})
	if err != nil {
		panic(err)
	}
	if err := tr.StartFlow(0, 0, 1, 0); err != nil {
		panic(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RunFor(10 * marlin.Microsecond)
	}
}

// benchShardScaling measures end-to-end sharded execution of one fat-tree
// simulation at a given worker budget: 12 cross-pod flows over fattree:4
// (4 partitions, one per pod), advancing sim time in fixed windows.
// shard/fattree_shards_1 is the single-worker baseline the scaling ratios
// divide by, so shard/scaling_{2,4} isolate the parallel win from the
// partitioned build's fixed overhead. The numbers are only meaningful when
// the machine has at least `shards` cores — see Report.CPUs.
func benchShardScaling(shards int) func(*testing.B) {
	return func(b *testing.B) {
		const ports = 12
		tr, err := marlin.NewTester(marlin.TestConfig{
			Algorithm:        "dctcp",
			Ports:            ports,
			ECNThresholdPkts: 65,
			Topology:         "fattree:4",
			Shards:           shards,
			DCQCNTimeScale:   30,
			Seed:             1,
		})
		if err != nil {
			panic(err)
		}
		for p := 0; p < ports; p++ {
			if err := tr.StartFlow(marlin.FlowID(p), p, (p+ports/2)%ports, 0); err != nil {
				panic(err)
			}
		}
		tr.RunFor(100 * marlin.Microsecond) // fill queues, warm wheel slots
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.RunFor(20 * marlin.Microsecond)
		}
	}
}

// marlinvetBenchDirs is the fixed package set the analyzer benchmarks run
// over — big enough to be representative, small enough for bench-smoke.
func marlinvetBenchDirs() (string, []string) {
	cwd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	dirs, err := lint.ExpandPatterns(cwd, []string{"./internal/sim", "./internal/packet", "./internal/fpga"})
	if err != nil {
		panic(err)
	}
	return cwd, dirs
}

func loadMarlinvetPkgs(cwd string, dirs []string) []*lint.Package {
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		panic(err)
	}
	var pkgs []*lint.Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			panic(err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// benchMarlinvetOnePass measures the shared-driver architecture: one parse
// and type-check of the package set, then every check over the one Program.
func benchMarlinvetOnePass(b *testing.B) {
	cwd, dirs := marlinvetBenchDirs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkgs := loadMarlinvetPkgs(cwd, dirs)
		if diags := lint.Run(pkgs, lint.AllChecks()); len(diags) != 0 {
			panic(fmt.Sprintf("marlinvet bench found %d diagnostics", len(diags)))
		}
	}
}

// benchMarlinvetPerCheckReload measures the pre-overhaul baseline shape:
// each check re-parses and re-type-checks the package set for itself.
func benchMarlinvetPerCheckReload(b *testing.B) {
	cwd, dirs := marlinvetBenchDirs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range lint.AllChecks() {
			pkgs := loadMarlinvetPkgs(cwd, dirs)
			if diags := lint.Run(pkgs, []*lint.Check{c}); len(diags) != 0 {
				panic(fmt.Sprintf("marlinvet bench found %d diagnostics", len(diags)))
			}
		}
	}
}

var suite = []struct {
	name string
	fn   func(*testing.B)
}{
	{"engine/steady_state", benchEngineSteady},
	{"refengine/steady_state", benchRefEngineSteady},
	{"engine/timer_churn", benchEngineChurn},
	{"refengine/timer_churn", benchRefEngineChurn},
	{"sim/fresh_engine_250us", benchFreshEngine},
	{"sim/far_timer_rearm", benchFarTimerRearm},
	{"packet/lifecycle", benchPacketLifecycle},
	{"packet/clone", benchPacketClone},
	{"aqm/red_enqueue", benchAQMEnqueue("red:min=30000,max=90000")},
	{"aqm/pi2_enqueue", benchAQMEnqueue("pi2:target=10us,tupdate=50us")},
	{"aqm/dualpi2_enqueue", benchAQMEnqueue("dualpi2:target=10us,tupdate=50us,step=20us")},
	{"tofino/fig6_pipeline", benchPipelineFig6},
	{"fpga/slowpath_64k_flows", benchSlowPath64k},
	{"tester/packet_rate", benchTesterPacketRate},
	{"shard/fattree_shards_1", benchShardScaling(1)},
	{"shard/fattree_shards_2", benchShardScaling(2)},
	{"shard/fattree_shards_4", benchShardScaling(4)},
	{"marlinvet/one_pass", benchMarlinvetOnePass},
	{"marlinvet/per_check_reload", benchMarlinvetPerCheckReload},
}

// recordedPreOverhaul are the seed-commit measurements (Intel Xeon 2.10GHz,
// the hardware of the checked-in baseline) for paths whose pre-overhaul
// implementation no longer exists in the tree.
var recordedPreOverhaul = []Result{
	{Name: "engine/schedule_run_mixed", NsPerOp: 205.2, AllocsPerOp: 1, BytesPerOp: 32},
	{Name: "tester/packet_rate", NsPerOp: 713055, AllocsPerOp: 3927, BytesPerOp: 234059},
}

func main() {
	flag.Parse()

	rep := Report{
		Schema:              "marlin-bench/v1",
		GoVersion:           runtime.Version(),
		GOARCH:              runtime.GOARCH,
		CPUs:                runtime.NumCPU(),
		Speedups:            map[string]float64{},
		RecordedPreOverhaul: recordedPreOverhaul,
	}
	perOp := map[string]float64{}
	for _, bm := range suite {
		fmt.Fprintf(os.Stderr, "running %s...\n", bm.name)
		r := testing.Benchmark(bm.fn)
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		perOp[bm.name] = ns
		rep.Results = append(rep.Results, Result{
			Name:        bm.name,
			Iterations:  r.N,
			NsPerOp:     ns,
			AllocsPerOp: int64(r.AllocsPerOp()),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	for _, mix := range []string{"steady_state", "timer_churn"} {
		if before, after := perOp["refengine/"+mix], perOp["engine/"+mix]; after > 0 {
			rep.Speedups["engine/"+mix] = before / after
		}
	}
	if before, after := perOp["marlinvet/per_check_reload"], perOp["marlinvet/one_pass"]; after > 0 {
		rep.Speedups["marlinvet/one_pass"] = before / after
	}
	for _, n := range []string{"2", "4"} {
		if base, par := perOp["shard/fattree_shards_1"], perOp["shard/fattree_shards_"+n]; par > 0 {
			rep.Speedups["shard/scaling_"+n] = base / par
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
