package controlplane

import (
	"strings"
	"testing"

	"marlin/internal/cc"
	"marlin/internal/sim"
	"marlin/internal/tofino"
)

func TestSpecValidate(t *testing.T) {
	good := Spec{Algorithm: "dctcp"}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{},
		{Algorithm: "nope"},
		{Algorithm: "reno", FlowsPerPort: -1},
		{Algorithm: "reno", Receiver: "quic"},
		{Algorithm: "reno", AQM: "bogus"},
		{Algorithm: "reno", AQM: "pie:target=0s"},
		{Algorithm: "dctcp", AQM: "pi2", ECNThresholdPkts: 65},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated", i)
		}
	}
	badParams := cc.DefaultParams(100*sim.Gbps, 1024)
	badParams.MTU = 1
	if err := (&Spec{Algorithm: "reno", Params: &badParams}).Validate(); err == nil {
		t.Error("bad params accepted")
	}
}

func TestDeployDefaults(t *testing.T) {
	eng := sim.NewEngine()
	tr, err := (&Spec{Algorithm: "dctcp"}).Deploy(eng)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Plan().MTU != 1024 || tr.Plan().DataPorts != 12 {
		t.Fatalf("plan = %+v", tr.Plan())
	}
}

func TestDeployReceiverOverride(t *testing.T) {
	eng := sim.NewEngine()
	tr, err := (&Spec{Algorithm: "dcqcn", Receiver: "tcp"}).Deploy(eng)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Config().Receiver != tofino.TCPReceiver {
		t.Fatal("receiver override ignored")
	}
}

func TestDeployECNAndRun(t *testing.T) {
	eng := sim.NewEngine()
	tr, err := (&Spec{
		Algorithm:        "dctcp",
		Ports:            3,
		ECNThresholdPkts: 65,
		Seed:             9,
	}).Deploy(eng)
	if err != nil {
		t.Fatal(err)
	}
	// Two senders into one receiver port: marking must fire.
	tr.StartFlow(0, 0, 2, 0)
	tr.StartFlow(1, 1, 2, 0)
	tr.Run(sim.Time(2 * sim.Millisecond))
	if tr.ForwardLink(2).Queue().Stats().ECNMarks == 0 {
		t.Fatal("deployed ECN config never marked")
	}
	snap := ReadRegisters(tr)
	if snap.Switch.DataTx == 0 || snap.NIC.ScheTx == 0 || len(snap.Ports) != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	losses := ReadLosses(tr)
	if losses.FalseLosses != 0 {
		t.Fatalf("false losses in correct operation: %+v", losses)
	}
}

func TestDeployAQMAndRun(t *testing.T) {
	eng := sim.NewEngine()
	tr, err := (&Spec{
		Algorithm: "dctcp",
		Ports:     3,
		// Targets scaled to this fabric: a 256 KB queue at 100 Gbps holds
		// at most ~20 us of sojourn, so the RFC's ms-scale defaults would
		// never engage here.
		AQM:  "dualpi2:target=5us,tupdate=25us,step=10us",
		Seed: 9,
	}).Deploy(eng)
	if err != nil {
		t.Fatal(err)
	}
	tr.StartFlow(0, 0, 2, 0)
	tr.StartFlow(1, 1, 2, 0)
	tr.Run(sim.Time(2 * sim.Millisecond))
	as := tr.ForwardLink(2).Queue().AQMStats()
	if as == nil || as.Discipline != "dualpi2" {
		t.Fatalf("AQM not deployed on the victim egress: %+v", as)
	}
	if as.Marks == 0 {
		t.Fatal("congested DualPI2 queue never marked")
	}
	// DCTCP prefers ECT(1), so its DATA rides the L4S band.
	if as.BandDeqPackets[1] == 0 {
		t.Fatalf("no L4S-band traffic from an ECT(1) control: %+v", as.BandDeqPackets)
	}
	// The discipline's counters surface through the network snapshot.
	snap := ReadRegisters(tr)
	found := false
	for _, sw := range snap.Network {
		for _, ps := range sw.Ports {
			if ps.AQM != nil && ps.AQM.Marks > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("AQM stats missing from the control-plane snapshot")
	}
}

func TestDeployDCQCNTimeScale(t *testing.T) {
	eng := sim.NewEngine()
	tr, err := (&Spec{Algorithm: "dcqcn", DCQCNTimeScale: 30, Ports: 2}).Deploy(eng)
	if err != nil {
		t.Fatal(err)
	}
	p := tr.Config().Params
	if p.RateTimer >= sim.Micros(300) {
		t.Fatalf("rate timer not scaled: %v", p.RateTimer)
	}
	if p.RateAI <= 40*sim.Mbps {
		t.Fatalf("AI step not scaled: %v", p.RateAI)
	}
}

func TestLintWarnings(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"ecn beyond queue", Spec{Algorithm: "dctcp", AQM: "ecn:k=300", NetQueueBytes: 256 << 10}, "drops will precede marking"},
		{"ecn above half", Spec{Algorithm: "dctcp", ECNThresholdPkts: 200, NetQueueBytes: 256 << 10}, "little headroom"},
		{"lossy roce", Spec{Algorithm: "dcqcn", DCQCNTimeScale: 10}, "go-back-N"},
		{"hpcc no int", Spec{Algorithm: "hpcc", EnableINT: false}, "no telemetry"},
		{"dcqcn paper timers", Spec{Algorithm: "dcqcn", EnablePFC: true, NetQueueBytes: 8 << 20}, "DCQCNTimeScale"},
		{"int stack overflow", Spec{Algorithm: "hpcc", EnableINT: true, ExtraHops: 5}, "INT stack"},
		{"pi2 target beyond the drain time", Spec{Algorithm: "dctcp", AQM: "pi2"}, "pi2 delay target 15ms is at or above the 262144 B queue's"},
		{"dualpi2 default step beyond the drain time", Spec{Algorithm: "dctcp", AQM: "dualpi2:target=25us,tupdate=100us"}, "dualpi2 L4S step 1ms is at or above"},
	}
	for _, c := range cases {
		warns := c.spec.Lint()
		found := false
		for _, w := range warns {
			if strings.Contains(w, c.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: warnings %v missing %q", c.name, warns, c.want)
		}
	}
}

func TestLintCleanSpec(t *testing.T) {
	clean := Spec{
		Algorithm:     "dctcp",
		AQM:           "ecn:k=65",
		NetQueueBytes: 1 << 20,
	}
	if warns := clean.Lint(); len(warns) != 0 {
		t.Fatalf("clean spec warned: %v", warns)
	}
	// The bench's fat-tree DualPI2, on a queue deep enough that a standing
	// delay can reach its 25 us target and 50 us step (1 MiB drains in
	// 84 us at 100 Gbps).
	l4s := Spec{Algorithm: "dctcp", AQM: "dualpi2:target=25us,tupdate=100us,step=50us", NetQueueBytes: 1 << 20}
	if warns := l4s.Lint(); len(warns) != 0 {
		t.Fatalf("dualpi2 within the drain time warned: %v", warns)
	}
}

func TestSpecTopology(t *testing.T) {
	bad := []Spec{
		{Algorithm: "dctcp", Topology: "mesh"},
		{Algorithm: "dctcp", Topology: "leafspine:0x2"},
		{Algorithm: "dctcp", Topology: "dumbbell", ExtraHops: 1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad topology spec %d validated", i)
		}
	}
	eng := sim.NewEngine()
	tr, err := (&Spec{
		Algorithm: "dctcp",
		Ports:     4,
		Topology:  "leafspine:2x2",
	}).Deploy(eng)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Fab == nil {
		t.Fatal("Deploy with Topology did not build a fabric")
	}
	if err := tr.StartFlow(0, 0, 1, 50); err != nil {
		t.Fatal(err)
	}
	tr.Run(sim.Time(20 * sim.Millisecond))
	if tr.FCTs.Len() != 1 {
		t.Fatal("flow did not complete over leaf-spine")
	}
	snap := ReadRegisters(tr)
	if len(snap.Network) != 4 {
		t.Fatalf("snapshot lists %d fabric switches, want 4", len(snap.Network))
	}
	if r := ReadLosses(tr); r.Misroutes != 0 {
		t.Fatalf("unexpected misroutes: %+v", r)
	}
}

func TestSnapshotNetworkTelemetry(t *testing.T) {
	// The canonical single switch shows up in Snapshot.Network too, with
	// per-port forwarded counts.
	eng := sim.NewEngine()
	tr, err := (&Spec{Algorithm: "dctcp", Ports: 2}).Deploy(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.StartFlow(0, 0, 1, 40); err != nil {
		t.Fatal(err)
	}
	tr.Run(sim.Time(10 * sim.Millisecond))
	snap := ReadRegisters(tr)
	if len(snap.Network) != 1 {
		t.Fatalf("canonical snapshot lists %d switches, want 1", len(snap.Network))
	}
	var tx uint64
	for _, ps := range snap.Network[0].Ports {
		tx += ps.TxPackets
	}
	if tx == 0 {
		t.Fatal("no per-port TX telemetry on the canonical switch")
	}
}

func TestLintTopologyINTDepth(t *testing.T) {
	s := Spec{Algorithm: "hpcc", EnableINT: true, Topology: "fattree:4"}
	found := false
	for _, w := range s.Lint() {
		if strings.Contains(w, "INT stack") {
			found = true
		}
	}
	if !found {
		t.Fatalf("fat-tree depth beyond the INT stack not flagged: %v", s.Lint())
	}
}

func TestDeployPattern(t *testing.T) {
	eng := sim.NewEngine()
	tr, err := (&Spec{
		Algorithm: "dctcp",
		Ports:     4,
		Pattern:   "incast:period=1ms,fanin=6,victim=2,size=50; flood:peak=20G,victim=2,period=1ms,duty=0.5",
		Seed:      9,
	}).Deploy(eng)
	if err != nil {
		t.Fatal(err)
	}
	// A well-behaved background flow shares the fabric with the patterns.
	if err := tr.StartFlow(0, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	tr.Run(sim.Time(5 * sim.Millisecond))
	drv := tr.PatternDriver()
	if drv == nil || drv.Started() == 0 {
		t.Fatal("pattern driver idle")
	}
	if drv.Injected() == 0 {
		t.Fatal("flood injected nothing")
	}
	// Flood frames really traversed the tested network to the victim.
	if tr.ForwardLink(2).Stats().TxPackets == 0 {
		t.Fatal("victim forward link carried nothing")
	}
	snap := ReadRegisters(tr)
	if snap.Overload == nil {
		t.Fatal("snapshot missing overload telemetry")
	}
	if snap.Overload.Samples == 0 || snap.Overload.BurstAbsorption <= 0 || snap.Overload.BurstAbsorption > 1 {
		t.Fatalf("overload report = %+v", snap.Overload)
	}
	// The background flow still makes progress under attack.
	if tr.GoodputBits(0) == 0 {
		t.Fatal("background flow starved completely")
	}
	// Patterns never allocate into the user flow range.
	if drv.FlowBase() < 4096 {
		t.Fatalf("flow base = %d", drv.FlowBase())
	}
}

func TestDeployPatternRejects(t *testing.T) {
	eng := sim.NewEngine()
	if err := (&Spec{Algorithm: "dctcp", Pattern: "bogus:x=1"}).Validate(); err == nil {
		t.Fatal("bad pattern spec validated")
	}
	// Victim beyond the port count passes Validate (no tester shape yet)
	// but must fail at Deploy.
	if _, err := (&Spec{
		Algorithm: "dctcp",
		Ports:     2,
		Pattern:   "flood:peak=1G,victim=5",
	}).Deploy(eng); err == nil {
		t.Fatal("out-of-range victim deployed")
	}
}

// TestLossReportCountsUplinkDropsOnce pins the loss report against a fault
// on a fabric host uplink: the tester's TX link into the fabric is that
// uplink, so its carrier losses enter DownDrops once, not once per name.
func TestLossReportCountsUplinkDropsOnce(t *testing.T) {
	eng := sim.NewEngine()
	tr, err := (&Spec{
		Algorithm: "cubic",
		Ports:     4,
		Topology:  "leafspine:2x2",
		Faults:    "linkdown host0->leaf0 at 1ms for 400us",
		Seed:      3,
	}).Deploy(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.StartFlow(0, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	tr.Run(sim.Time(2 * sim.Millisecond))
	up, err := tr.ResolveLink("host0->leaf0")
	if err != nil {
		t.Fatal(err)
	}
	want := up.Stats().DownDrops
	if want == 0 {
		t.Fatal("uplink outage dropped nothing")
	}
	if got := ReadLosses(tr).DownDrops; got != want {
		t.Fatalf("LossReport.DownDrops = %d, want the uplink's %d", got, want)
	}
}

// TestSpecTopologyTooLarge: a shape past the fabric's switch-port bound is
// refused at validation, before Deploy allocates any of it.
func TestSpecTopologyTooLarge(t *testing.T) {
	for _, topo := range []string{"leafspine:10000x10000", "fattree:64", "parkinglot:100000"} {
		s := Spec{Algorithm: "dctcp", Topology: topo}
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "switch ports") {
			t.Errorf("topology %s: Validate = %v, want a switch-port bound error", topo, err)
		}
		if _, err := s.Deploy(sim.NewEngine()); err == nil {
			t.Errorf("topology %s deployed", topo)
		}
	}
}
