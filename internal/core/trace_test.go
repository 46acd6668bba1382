package core

import (
	"reflect"
	"runtime"
	"testing"

	"marlin/internal/fabric"
	"marlin/internal/packet"
	"marlin/internal/race"
	"marlin/internal/sim"
)

// traceRun deploys a single-switch DCTCP tester, traces the flows named,
// starts flows 0→1 and 1→0 at line rate and runs it for horizon.
func traceRun(t *testing.T, horizon sim.Duration, traced ...packet.FlowID) *Tester {
	t.Helper()
	tr := newTester(t, Config{Algorithm: mustAlg(t, "dctcp"), DataPorts: 2, Seed: 4})
	for _, f := range traced {
		if err := tr.TraceFlow(f); err != nil {
			t.Fatal(err)
		}
	}
	for f := packet.FlowID(0); f < 2; f++ {
		if err := tr.StartFlow(f, int(f), 1-int(f), 0); err != nil {
			t.Fatal(err)
		}
	}
	tr.Run(sim.Time(horizon))
	return tr
}

// With no flow traced the §5.1 logger still counts every record the CC
// module emits — the same Total and QDMAPackets as with every flow traced —
// but retains none, so a long run holds no more heap than the tester did
// before it (the 2²⁰-record ring used to keep 32 B of every record).
func TestUntracedRunCountsEveryRecordAndRetainsNone(t *testing.T) {
	const (
		horizon    = 5 * sim.Millisecond
		mostGrowth = 384 << 10 // B
	)
	all := traceRun(t, horizon, 0, 1)
	want := all.islands[0].nic.Logger()
	if want.Total() < 100_000 || want.Len() != int(want.Total()) {
		t.Fatalf("every flow traced: %d records logged, %d retained; want >= 100,000, all retained", want.Total(), want.Len())
	}

	tr := traceRun(t, 0)
	before := liveHeap()
	tr.Run(sim.Time(horizon))
	grew := int64(liveHeap()) - int64(before)
	got := tr.islands[0].nic.Logger()
	if got.Len() != 0 || got.Evicted() != 0 {
		t.Errorf("no flow traced: %d records retained, %d evicted", got.Len(), got.Evicted())
	}
	if got.Total() != want.Total() || got.QDMAPackets() != want.QDMAPackets() {
		t.Errorf("no flow traced: %d records in %d QDMA packets, every flow traced: %d in %d",
			got.Total(), got.QDMAPackets(), want.Total(), want.QDMAPackets())
	}
	if tr.FlowTrace(0) != nil {
		t.Error("an untraced flow has a trace")
	}
	t.Logf("%d records counted; live heap grew %d B over the run", got.Total(), grew)
	if grew > mostGrowth && !race.Enabled {
		t.Errorf("live heap grew %d B over a %v run with no flow traced, want <= %d", grew, horizon, mostGrowth)
	}
	runtime.KeepAlive(tr)
}

// A flow's trace is the same whether it alone is traced or every flow is:
// retention filters the records, it does not change them.
func TestFlowTraceSameAloneOrAmongAll(t *testing.T) {
	const horizon = 2 * sim.Millisecond
	all := traceRun(t, horizon, 0, 1)
	if l := all.islands[0].nic.Logger(); l.Evicted() != 0 {
		t.Fatalf("every flow traced evicted %d records: the run exceeds the ring bound", l.Evicted())
	}
	for f := packet.FlowID(0); f < 2; f++ {
		want := all.FlowTrace(f)
		if len(want) == 0 {
			t.Fatalf("flow %d has no trace with every flow traced", f)
		}
		alone := traceRun(t, horizon, f)
		if got := alone.FlowTrace(f); !reflect.DeepEqual(got, want) {
			t.Errorf("flow %d traced alone: %d points, among all: %d, and they differ", f, len(got), len(want))
		}
		if other := alone.FlowTrace(1 - f); other != nil {
			t.Errorf("flow %d traced alone, yet flow %d has %d points", f, 1-f, len(other))
		}
	}
}

// TraceFlow may precede StartFlow on a sharded tester, where the island
// owning the flow is not known until it starts: the flow's trace, from its
// EvStart record on, is held by the owning island's NIC.
func TestTraceFlowBeforeStartOnShardedTester(t *testing.T) {
	tr := newTester(t, Config{
		Algorithm: mustAlg(t, "dctcp"),
		DataPorts: 4,
		Topology:  fabric.Spec{Kind: fabric.KindLeafSpine, Leaves: 2, Spines: 2},
		Shards:    2,
		Seed:      5,
	})
	tx := -1
	for p, isl := range tr.portIsland {
		if isl.part == 1 {
			tx = p
			break
		}
	}
	if len(tr.islands) != 2 || tx < 0 {
		t.Fatalf("Shards 2 built %d islands and no data port on island 1", len(tr.islands))
	}
	const flow = 5
	if err := tr.TraceFlow(flow); err != nil {
		t.Fatal(err)
	}
	if err := tr.StartFlow(flow, tx, (tx+2)%4, 0); err != nil {
		t.Fatal(err)
	}
	tr.Run(sim.Time(sim.Millisecond))
	if o := tr.owner(flow); o != tr.islands[1] {
		t.Fatalf("flow %d owned by island %d, want 1", flow, o.part)
	}
	trace := tr.FlowTrace(flow)
	if len(trace) < 10 || trace[0].At != 0 {
		t.Fatalf("flow %d: %d trace points, want its EvStart at 0 and more", flow, len(trace))
	}
	if n := tr.islands[0].nic.Logger().Len(); n != 0 {
		t.Errorf("island 0 retained %d records for a flow it does not own", n)
	}
}

// A flow ID past the BRAM bound is refused with the NIC's error before any
// island's flow store allocates a page for it.
func TestTraceFlowOutOfRangeAllocatesNothing(t *testing.T) {
	tr := newTester(t, Config{Algorithm: mustAlg(t, "dctcp"), DataPorts: 2, Seed: 1})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := tr.TraceFlow(1 << 24)
	runtime.ReadMemStats(&m1)
	if err == nil || err.Error() != "fpga: flow 16777216 exceeds BRAM capacity 70312" {
		t.Fatalf("TraceFlow(1<<24) = %v, want the BRAM capacity error", err)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 4<<10 && !race.Enabled {
		t.Errorf("refusing TraceFlow(1<<24) allocated %d B", got)
	}
}
