package marlin_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"marlin"
)

func TestAlgorithmsListed(t *testing.T) {
	algos := marlin.Algorithms()
	want := map[string]bool{"reno": true, "dctcp": true, "dcqcn": true, "cubic": true, "timely": true}
	for _, a := range algos {
		delete(want, a)
	}
	if len(want) != 0 {
		t.Fatalf("missing algorithms: %v (have %v)", want, algos)
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	if err := marlin.Validate(marlin.TestConfig{}); err == nil {
		t.Fatal("empty config validated")
	}
	if err := marlin.Validate(marlin.TestConfig{Algorithm: "dctcp"}); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestTesterEndToEnd(t *testing.T) {
	tr, err := marlin.NewTester(marlin.TestConfig{Algorithm: "dctcp", Ports: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.DataPorts() != 2 {
		t.Fatalf("DataPorts = %d", tr.DataPorts())
	}
	if tr.PlannedThroughput() != 200*marlin.Gbps {
		t.Fatalf("planned throughput = %v", tr.PlannedThroughput())
	}
	if err := tr.TraceFlow(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.StartFlow(0, 0, 1, 200); err != nil {
		t.Fatal(err)
	}
	tr.RunFor(20 * marlin.Millisecond)
	if got := len(tr.FCTs()); got != 1 {
		t.Fatalf("FCTs = %d, want 1", got)
	}
	rec := tr.FCTs()[0]
	if rec.SizePkts != 200 || rec.FCT <= 0 {
		t.Fatalf("record = %+v", rec)
	}
	snap := tr.Registers()
	if snap.Switch.DataTx < 200 {
		t.Fatalf("snapshot DataTx = %d", snap.Switch.DataTx)
	}
	if !strings.Contains(marlin.FormatSnapshot(snap), "data_tx=") {
		t.Fatal("FormatSnapshot missing fields")
	}
	if losses := tr.Losses(); losses.FalseLosses != 0 {
		t.Fatalf("false losses: %+v", losses)
	}
	if trace := tr.FlowTrace(0); len(trace) == 0 {
		t.Fatal("no trace")
	}
}

func TestInjectLossAndECN(t *testing.T) {
	tr, err := marlin.NewTester(marlin.TestConfig{Algorithm: "dctcp", Ports: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr.InjectLoss(1, 0, 50)
	tr.InjectECN(1, 0, 120, 160)
	if err := tr.TraceFlow(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.StartFlow(0, 0, 1, 400); err != nil {
		t.Fatal(err)
	}
	tr.RunFor(50 * marlin.Millisecond)
	if len(tr.FCTs()) != 1 {
		t.Fatal("flow did not survive the injected events")
	}
	snap := tr.Registers()
	if snap.NIC.RtxTx == 0 {
		t.Fatal("injected loss produced no retransmission")
	}
	// The ECN burst must appear in the trace as a cwnd reduction.
	var sawCut bool
	trace := tr.FlowTrace(0)
	for i := 1; i < len(trace); i++ {
		if trace[i].A < trace[i-1].A && trace[i].B > 0 {
			sawCut = true
			break
		}
	}
	if !sawCut {
		t.Fatal("ECN injection produced no alpha-driven window cut")
	}
}

func TestScheduledScript(t *testing.T) {
	tr, err := marlin.NewTester(marlin.TestConfig{Algorithm: "dctcp", Ports: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.StartFlow(0, 0, 2, 0); err != nil {
		t.Fatal(err)
	}
	tr.Schedule(1*marlin.Millisecond, func() {
		if err := tr.StartFlow(1, 1, 2, 0); err != nil {
			t.Error(err)
		}
	})
	tr.Schedule(2*marlin.Millisecond, func() { tr.StopFlow(0) })
	tr.RunFor(3 * marlin.Millisecond)
	if tr.FlowTxBytes(1) == 0 {
		t.Fatal("scheduled flow never ran")
	}
	if tr.Now() != marlin.Time(3*marlin.Millisecond) {
		t.Fatalf("Now = %v", tr.Now())
	}
}

// stopAndGo is a minimal custom module used to prove external
// registration works end to end (requirement R2).
type stopAndGo struct{}

func (stopAndGo) Name() string        { return "stopandgo" }
func (stopAndGo) Mode() marlin.CCMode { return marlin.WindowMode }
func (stopAndGo) FastPathCycles() int { return 1 }
func (stopAndGo) SlowPathCycles() int { return 0 }
func (stopAndGo) InitFlow(cust, slow *marlin.CCState, p *marlin.CCParams) {
	marlin.RegsOf(cust).SetU32(0, 4)
}
func (stopAndGo) OnEvent(in *marlin.CCInput, out *marlin.CCOutput) {
	out.SetCwnd, out.Cwnd = true, marlin.RegsOf(in.Cust).U32(0)
	out.Schedule = true
}
func (stopAndGo) OnSlowPath(code uint8, cust, slow *marlin.CCState, in *marlin.CCInput, out *marlin.CCOutput) {
}

func TestCustomCCRegistration(t *testing.T) {
	marlin.RegisterCC("stopandgo", func() marlin.CCAlgorithm { return stopAndGo{} })
	tr, err := marlin.NewTester(marlin.TestConfig{Algorithm: "stopandgo", Ports: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.StartFlow(0, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	tr.RunFor(100 * marlin.Microsecond)
	if tr.FlowTxBytes(0) == 0 {
		t.Fatal("custom module generated no traffic")
	}
	// Fixed window of 4: inflight never exceeds 4 packets, so the rate
	// is window-limited to ~4 packets per RTT.
	snap := tr.Registers()
	if snap.Switch.DataTx == 0 || snap.NIC.EventsHandled == 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestWorkloadHelpers(t *testing.T) {
	rng := marlin.NewRand(1)
	ws := marlin.WebSearch()
	for i := 0; i < 100; i++ {
		if s := ws.Sample(rng); s < 1 || s > 20000 {
			t.Fatalf("websearch sample %d", s)
		}
	}
	if marlin.FixedSize(7).Sample(rng) != 7 {
		t.Fatal("FixedSize broken")
	}
	u := marlin.UniformSize(3, 9)
	for i := 0; i < 100; i++ {
		if s := u.Sample(rng); s < 3 || s > 9 {
			t.Fatalf("uniform sample %d", s)
		}
	}
	cdf := marlin.NewCDF([]float64{1, 2, 3, 4})
	if cdf.Percentile(0.5) != 2 {
		t.Fatal("CDF percentile")
	}
	if j := marlin.JainIndex([]float64{5, 5}); j != 1 {
		t.Fatalf("Jain = %v", j)
	}
}

func TestExperimentRegistryExposed(t *testing.T) {
	if len(marlin.Experiments()) < 14 {
		t.Fatalf("experiments = %v", marlin.Experiments())
	}
	if marlin.DescribeExperiment("fig7") == "" {
		t.Fatal("fig7 undescribed")
	}
	res, err := marlin.RunExperiment("table-amplify", marlin.ExperimentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["tbps_1024"] != 1.2 {
		t.Fatalf("amplification table wrong: %v", res.Metrics["tbps_1024"])
	}
}

func TestRTTSamplingAndCapture(t *testing.T) {
	tr, err := marlin.NewTester(marlin.TestConfig{Algorithm: "dctcp", Ports: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var fwd, dev bytes.Buffer
	if _, err := tr.CaptureForward(1, &fwd, 0); err != nil {
		t.Fatal(err)
	}
	devCap, err := tr.CaptureDeviceLinks(&dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.StartFlow(0, 0, 1, 200); err != nil {
		t.Fatal(err)
	}
	tr.RunFor(10 * marlin.Millisecond)

	samples, count, ewma := tr.RTT()
	if count < 100 || len(samples) < 100 {
		t.Fatalf("rtt probes: count=%d samples=%d", count, len(samples))
	}
	// Base path: ~8.6us of delays plus serialization; EWMA must land in
	// a plausible band.
	if ewma < 5 || ewma > 50 {
		t.Fatalf("rtt ewma = %v us, implausible", ewma)
	}
	if devCap.Packets() < 300 { // ~200 SCHE + ~200 INFO
		t.Fatalf("device capture saw %d packets", devCap.Packets())
	}
	if fwd.Len() <= 24 || dev.Len() <= 24 {
		t.Fatal("capture files empty beyond the header")
	}
}

// TestCaptureOnPartitionedBuild is `marlinctl test -topology leafspine:2x2
// -shards N -pcap`: the forward-link capture must stamp each packet from the
// captured link's own engine, not from the control engine parked at the last
// round barrier. One flow crosses the spine, so the captured link sees
// arrivals paced by one upstream 100G trunk: at most 12 MTU frames can share
// a microsecond stamp, where barrier stamps pile a whole 2 us round onto one.
func TestCaptureOnPartitionedBuild(t *testing.T) {
	capture := func(shards int) []byte {
		tr, err := marlin.NewTester(marlin.TestConfig{
			Algorithm: "dctcp", Ports: 4, Topology: "leafspine:2x2",
			Shards: shards, AQM: "ecn:k=65", Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := tr.CaptureForward(1, &buf, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.CaptureDeviceLinks(&bytes.Buffer{}, 0); err == nil {
			t.Fatalf("shards=%d: device-link capture accepted on a two-island build", shards)
		}
		if err := tr.StartFlow(0, 0, 1, 400); err != nil {
			t.Fatal(err)
		}
		tr.RunFor(2 * marlin.Millisecond)
		return buf.Bytes()
	}
	one, two := capture(1), capture(2)
	if !bytes.Equal(one, two) {
		t.Fatal("pcap at shards=2 differs from shards=1")
	}
	perStamp := map[uint64]int{}
	var last uint64
	for rec := two[24:]; len(rec) >= 16; {
		us := uint64(binary.LittleEndian.Uint32(rec[0:4]))*1e6 + uint64(binary.LittleEndian.Uint32(rec[4:8]))
		if us < last {
			t.Fatalf("timestamps go backwards: %d us after %d us", us, last)
		}
		last = us
		perStamp[us]++
		rec = rec[16+binary.LittleEndian.Uint32(rec[8:12]):]
	}
	for us, n := range perStamp {
		if n > 12 {
			t.Fatalf("%d frames stamped %d us: more than a 100G link carries in a microsecond", n, us)
		}
	}
	if len(perStamp) < 40 {
		t.Fatalf("only %d distinct stamps over a 400-frame flow", len(perStamp))
	}
}

func TestCBRIgnoresCongestion(t *testing.T) {
	// Two CBR flows at line rate into one port: no backoff, so the
	// shallow queue drops heavily — the behaviour a CC-unaware tester
	// (R1 unmet) would inflict on the network under test.
	tr, err := marlin.NewTester(marlin.TestConfig{
		Algorithm: "cbr",
		Ports:     3,
		AQM:       "ecn:k=65",
		Seed:      6,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.StartFlow(0, 0, 2, 0)
	tr.StartFlow(1, 1, 2, 0)
	tr.RunFor(2 * marlin.Millisecond)
	if drops := tr.Losses().NetworkDrops; drops == 0 {
		t.Fatal("CBR overload produced no drops (congestion reaction leaked in)")
	}
}

func TestRunScenarioPublicAPI(t *testing.T) {
	rep, err := marlin.RunScenario(`
set algo dctcp
set ports 2
at 0ms start 0 tx 0 rx 1 size 50
run 5ms
expect completions == 1
expect false_losses == 0
`)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("scenario failed:\n%s", rep.Summary())
	}
	if _, err := marlin.RunScenario("nonsense"); err == nil {
		t.Fatal("bad scenario parsed")
	}
}

// TestAQMMixedCCEndToEnd drives the public AQM path: a DualPI2 spec with
// every controller parameter overridden, a per-flow CUBIC override sharing
// the port with DCTCP, and the per-band telemetry split.
func TestAQMMixedCCEndToEnd(t *testing.T) {
	tr, err := marlin.NewTester(marlin.TestConfig{
		Algorithm: "dctcp",
		Ports:     3,
		AQM:       "dualpi2:target=5us,tupdate=25us,alpha=250,beta=2500,step=10us,shift=10us",
		Seed:      9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.StartFlow(0, 0, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.StartFlowCC(1, 1, 2, 0, "cubic"); err != nil {
		t.Fatal(err)
	}
	// A rate-mode override on a window-mode deployment must be refused.
	if err := tr.StartFlowCC(2, 0, 2, 0, "dcqcn"); err == nil {
		t.Fatal("cross-mode CC override accepted")
	}
	tr.RunFor(2 * marlin.Millisecond)
	ps := tr.NetworkTelemetry()[0].Ports[2]
	if ps.AQM == nil || ps.AQM.Discipline != "dualpi2" {
		t.Fatalf("no discipline on the victim port: %+v", ps.AQM)
	}
	// DCTCP rides the L4S band, the CUBIC override the classic band.
	if ps.AQM.BandDeqPackets[0] == 0 || ps.AQM.BandDeqPackets[1] == 0 {
		t.Fatalf("bands not split by codepoint: %+v", ps.AQM.BandDeqPackets)
	}
	if ps.AQM.Marks == 0 {
		t.Fatal("congested DualPI2 port never marked")
	}
}

// TestAQMDifferentialWorkers is the determinism gate for the probabilistic
// disciplines: the same cc × AQM campaign must produce byte-identical
// marks, drops, and sojourn percentiles at -j 1 vs -j N and across two
// GOMAXPROCS settings, because every queue draws from its own pre-split
// RNG stream.
func TestAQMDifferentialWorkers(t *testing.T) {
	cells := []string{
		"red:min=30000,max=90000",
		"pie:target=10us,tupdate=50us,alpha=250,beta=2500",
		"dualpi2:target=10us,tupdate=50us,step=20us,shift=20us,alpha=250,beta=2500",
	}
	campaign := func(workers int) []marlin.FleetJobResult {
		t.Helper()
		jobs := make([]marlin.FleetJob, len(cells))
		for i, spec := range cells {
			spec := spec
			jobs[i] = marlin.FleetJob{ID: spec, Run: func() (*marlin.FleetOutput, error) {
				tester, err := marlin.NewTester(marlin.TestConfig{
					Algorithm: "dctcp", Ports: 3, AQM: spec, Seed: 23,
				})
				if err != nil {
					return nil, err
				}
				if err := tester.StartFlow(0, 0, 2, 0); err != nil {
					return nil, err
				}
				if err := tester.StartFlowCC(1, 1, 2, 0, "cubic"); err != nil {
					return nil, err
				}
				tester.RunFor(2 * marlin.Millisecond)
				ps := tester.NetworkTelemetry()[0].Ports[2]
				return &marlin.FleetOutput{Metrics: map[string]float64{
					"marks":       float64(ps.AQM.Marks),
					"drops":       float64(ps.AQM.Drops),
					"classic_p99": ps.AQM.SojournP99Us[0],
					"l4s_p99":     ps.AQM.SojournP99Us[1],
					"tx":          float64(ps.TxPackets),
				}}, nil
			}}
		}
		results, err := marlin.RunFleet(jobs, marlin.FleetOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	baseline := campaign(1)
	for _, procs := range []int{1, prev} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 4} {
			got := campaign(workers)
			for i := range baseline {
				if !baseline[i].OK() || !got[i].OK() {
					t.Fatalf("cell %s failed: %q / %q", cells[i], baseline[i].Err, got[i].Err)
				}
				want, have := baseline[i].Output.Metrics, got[i].Output.Metrics
				for k, v := range want {
					if have[k] != v {
						t.Errorf("GOMAXPROCS=%d workers=%d cell %s: %s = %g, want %g",
							procs, workers, cells[i], k, have[k], v)
					}
				}
				if want["marks"] == 0 {
					t.Errorf("cell %s never marked; differential test is vacuous", cells[i])
				}
			}
		}
	}
}

// TestFleetPublicAPI drives a small campaign of real testers through the
// public fleet surface: parallel execution, derived seeds, in-order
// results, and CDF merging across replicates.
func TestFleetPublicAPI(t *testing.T) {
	campaign := func(workers int) []marlin.FleetJobResult {
		t.Helper()
		jobs := make([]marlin.FleetJob, 3)
		for i := range jobs {
			id := []string{"rep0", "rep1", "rep2"}[i]
			seed := marlin.DeriveSeed(42, id)
			jobs[i] = marlin.FleetJob{ID: id, Run: func() (*marlin.FleetOutput, error) {
				tester, err := marlin.NewTester(marlin.TestConfig{
					Algorithm: "dctcp", Ports: 2, AQM: "ecn:k=65", Seed: seed,
				})
				if err != nil {
					return nil, err
				}
				if err := tester.StartFlow(0, 0, 1, 50); err != nil {
					return nil, err
				}
				tester.RunFor(2 * marlin.Millisecond)
				return &marlin.FleetOutput{
					Metrics: map[string]float64{"tx_bytes": float64(tester.FlowTxBytes(0))},
					Samples: map[string][]float64{"fct_us": tester.FCTMicros()},
				}, nil
			}}
		}
		results, err := marlin.RunFleet(jobs, marlin.FleetOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}

	seq, par := campaign(1), campaign(4)
	var cdfs []marlin.CDF
	for i := range seq {
		if !seq[i].OK() || !par[i].OK() {
			t.Fatalf("job %d failed: %q / %q", i, seq[i].Err, par[i].Err)
		}
		if seq[i].ID != par[i].ID {
			t.Fatalf("result order differs: %s vs %s", seq[i].ID, par[i].ID)
		}
		a, b := seq[i].Output.Metrics["tx_bytes"], par[i].Output.Metrics["tx_bytes"]
		if a != b || a == 0 {
			t.Errorf("job %d: workers=4 metrics differ from workers=1: %g vs %g", i, b, a)
		}
		cdfs = append(cdfs, marlin.NewCDF(par[i].Output.Samples["fct_us"]))
	}
	merged := marlin.MergeCDFs(cdfs...)
	total := 0
	for _, c := range cdfs {
		total += c.Len()
	}
	if merged.Len() != total || total == 0 {
		t.Errorf("merged CDF has %d samples, want %d (> 0)", merged.Len(), total)
	}
}
