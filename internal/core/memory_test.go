package core

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"marlin/internal/aqm"
	"marlin/internal/fabric"
	"marlin/internal/packet"
	"marlin/internal/race"
	"marlin/internal/sim"
)

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// A tester's memory follows what its test uses: every per-port and per-flow
// structure is sized by use, and the hardware capacities — 2,048 register
// entries a port (§4.2), 70,312 flows of BRAM (§8) — are checks, not
// allocations, and every per-flow row holds only the fields the model reads.
// The figures are bounded a little above what they measure (DESIGN.md
// "Performance", rule 2). A register queue allocated at its depth costs
// 64 KiB a port, a flow table grown to the largest flow ID costs thousands of
// rows for the pattern driver's first flow (4096), and a NIC flow word past
// 192 B puts each 64-flow page in a size class above 12 KiB.
func TestTesterMemoryFollowsUse(t *testing.T) {
	if race.Enabled {
		t.Skip("heap figures are not comparable under -race")
	}
	// Measured 2,246 B, 225 B and 17,056 B (go1.24, linux/amd64). With
	// timer handles in a 248 B NIC flow word, a 16 B core row and queue
	// bands without slots of their own they were 1,809 B, 297 B and
	// 21,664 B; with a 312 B NIC flow word and 24 to 32 B rows elsewhere,
	// 372 B a flow and 25,840 B for flow 4096; with dense tables and
	// full-depth register queues, 67,601 B a port and 258,056 B for flow
	// 4096.
	const (
		mostPerPort = 2600     // B a data port
		mostPerFlow = 248      // B a started flow
		mostAt4096  = 24 << 10 // B for one flow started at ID 4096: a page in each table
	)
	deployed := func(ports int) (*Tester, uint64) {
		before := liveHeap()
		tr := newTester(t, Config{Algorithm: mustAlg(t, "dctcp"), DataPorts: ports, Seed: 1})
		return tr, liveHeap() - before
	}

	small, h2 := deployed(2)
	large, h12 := deployed(12)
	perPort := (int64(h12) - int64(h2)) / 10
	t.Logf("deployed single switch: %d B at 2 ports, %d B at 12: %d B a data port", h2, h12, perPort)
	if perPort > mostPerPort {
		t.Errorf("a data port costs %d B, want <= %d", perPort, mostPerPort)
	}
	runtime.KeepAlive(small)

	const flows = 4096
	before := liveHeap()
	for i := 0; i < flows; i++ {
		if err := large.StartFlow(packet.FlowID(i), i%12, (i+1)%12, 100); err != nil {
			t.Fatal(err)
		}
	}
	perFlow := int64(liveHeap()-before) / flows
	t.Logf("%d flows started: %d B a flow", flows, perFlow)
	if perFlow > mostPerFlow {
		t.Errorf("a started flow costs %d B, want <= %d", perFlow, mostPerFlow)
	}
	runtime.KeepAlive(large)

	// The pattern driver's first flow: one page in each table, not 4,097
	// rows.
	tr, _ := deployed(8)
	before = liveHeap()
	if err := tr.StartFlow(4096, 0, 7, 100); err != nil {
		t.Fatal(err)
	}
	at4096 := int64(liveHeap() - before)
	t.Logf("flow 4096 on an 8-port tester: %d B", at4096)
	if at4096 > mostAt4096 {
		t.Errorf("starting flow 4096 costs %d B, want <= %d", at4096, mostAt4096)
	}
	if r, f := tr.route.Pages(), tr.flows.Pages(); r != 1 || f != 1 {
		t.Errorf("flow 4096 holds %d route and %d flow pages, want one each", r, f)
	}
	runtime.KeepAlive(tr)
}

// core's own flow row is the size and the owning island's 4 B index: 8 B.
// The start time is derived at completion from the NIC's FCT.
func TestFlowEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(flowEntry{}); got > 8 {
		t.Errorf("flowEntry is %d B, want <= 8", got)
	}
}

// A flow ID the NIC's BRAM cannot hold is refused before anything is bound
// for it: the error is the NIC's, and nothing is allocated on the way (a
// table grown to flow 1<<24 first cost 4,321 MiB).
func TestOutOfRangeFlowAllocatesNothing(t *testing.T) {
	tr := newTester(t, Config{Algorithm: mustAlg(t, "dctcp"), DataPorts: 2, Seed: 1})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := tr.StartFlow(1<<24, 0, 1, 0)
	runtime.ReadMemStats(&m1)
	if err == nil || err.Error() != "fpga: flow 16777216 exceeds BRAM capacity 70312" {
		t.Fatalf("StartFlow(1<<24) = %v, want the BRAM capacity error", err)
	}
	if err := tr.StartFlowCC(1<<24, 0, 1, 0, "dctcp"); err == nil || !strings.Contains(err.Error(), "exceeds BRAM capacity") {
		t.Fatalf("StartFlowCC(1<<24) = %v, want the BRAM capacity error", err)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 4<<10 && !race.Enabled {
		t.Errorf("refusing flow 1<<24 allocated %d B", got)
	}
	if tr.route.Pages()+tr.flows.Pages() != 0 {
		t.Error("a refused flow left pages behind")
	}
	if tr.dst(&packet.Packet{Flow: 1 << 24}) != -1 || tr.owner(1<<24) != nil {
		t.Error("a refused flow is routed or owned")
	}
}

// Every refusal of the NIC's start preflight leaves the flow as unbound as
// a BRAM refusal does: a per-flow algorithm of the other mode, an ID
// already active, on this island's NIC or another's. The refused flow is
// neither owned nor routed, and an active flow refused a second start
// keeps its binding.
func TestRefusedStartFlowBindsNothing(t *testing.T) {
	tr := newTester(t, Config{Algorithm: mustAlg(t, "dctcp"), DataPorts: 2, Seed: 1})
	err := tr.StartFlowCC(5, 0, 1, 10, "dcqcn")
	if err == nil || !strings.Contains(err.Error(), "rate-mode, NIC schedules window-mode") {
		t.Fatalf("StartFlowCC(dcqcn) under dctcp = %v, want the mode error", err)
	}
	if tr.owner(5) != nil || tr.dst(&packet.Packet{Flow: 5}) != -1 {
		t.Errorf("a flow refused for its mode is owned (%v) or routed (to %d)", tr.owner(5), tr.dst(&packet.Packet{Flow: 5}))
	}
	if err := tr.StartFlow(6, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.StartFlow(6, 1, 0, 0); err == nil || !strings.Contains(err.Error(), "already active") {
		t.Fatalf("second StartFlow(6) = %v, want the already-active error", err)
	}
	if tr.dst(&packet.Packet{Flow: 6}) != 1 {
		t.Errorf("an active flow refused a second start was rerouted to %d, want 1", tr.dst(&packet.Packet{Flow: 6}))
	}

	// On a sharded tester, a second start from a TX port of another island
	// is refused as well: the flow keeps its island and its route.
	topo, err := fabric.ParseSpec("fattree:4")
	if err != nil {
		t.Fatal(err)
	}
	sh := newTester(t, Config{Algorithm: mustAlg(t, "dctcp"), DataPorts: 8, Topology: topo, Shards: 2, Seed: 1})
	if sh.portIsland[0] == sh.portIsland[7] {
		t.Fatal("ports 0 and 7 share an island")
	}
	if err := sh.StartFlow(1, 0, 7, 0); err != nil {
		t.Fatal(err)
	}
	if err := sh.StartFlow(1, 7, 0, 0); err == nil || !strings.Contains(err.Error(), "already active") {
		t.Fatalf("second StartFlow(1) from another island = %v, want the already-active error", err)
	}
	if sh.owner(1) != sh.portIsland[0] || sh.dst(&packet.Packet{Flow: 1}) != 7 {
		t.Errorf("a flow refused a second start on another island moved to island %d, route %d", sh.owner(1).idx, sh.dst(&packet.Packet{Flow: 1}))
	}
}

// One short job as sweeps, the fuzzer and the experiments run it: deploy a
// leafspine:4x2 tester, run eight finite flows for 250 us, read it out. A
// fresh tester's packet, event and queue free lists grow by the slab, and
// its links sit in slabs sized from the shape, so the job's allocations
// follow its switches and its peak in flight, not its links or the packets
// it moves. Measured 225 (go1.24, linux/amd64), bounded at 270, 20% above.
// It was 278 when every queue band grew its array from nothing and the RTT
// window grew in 256-sample pieces (282 when the engine grew its ready heap
// by append), 299 when each pipeline port built its ingress nodes on every
// call; with a closure pair and an RNG a link it was 586, and with free
// lists filled one object at a time 1,889.
func TestShortJobAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const most = 270
	topo, err := fabric.ParseSpec("leafspine:4x2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Algorithm: mustAlg(t, "dctcp"), DataPorts: 8, Topology: topo, AQM: aqm.Spec{Kind: aqm.KindECN, K: 65}, Seed: 1}
	var dataTx uint64
	a := testing.AllocsPerRun(5, func() {
		tr := newTester(t, cfg)
		for i := 0; i < 8; i++ {
			if err := tr.StartFlow(packet.FlowID(i), i, (i+3)%8, 150); err != nil {
				t.Fatal(err)
			}
		}
		tr.Run(sim.Time(250 * sim.Microsecond))
		tr.NetworkStats()
		tr.PipelineCounters()
		tr.NICStats()
		tr.RTTSamples()
		dataTx = tr.PipelineCounters().DataTx
	})
	t.Logf("one leafspine:4x2 job: %v allocations, %d DATA packets", a, dataTx)
	if dataTx < 1000 {
		t.Fatalf("the job sent %d DATA packets, want >= 1000", dataTx)
	}
	if a > most {
		t.Errorf("one leafspine:4x2 job made %v allocations, want <= %d", a, most)
	}
}
