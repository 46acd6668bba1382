package core

import (
	"testing"

	"marlin/internal/aqm"
	"marlin/internal/fabric"
	"marlin/internal/faults"
	"marlin/internal/packet"
	"marlin/internal/shard"
	"marlin/internal/sim"
	"marlin/internal/workload"
)

// shardedFaultTester builds a Shards 2 fattree:4 tester running alg on
// ports ports, flows flows a port to the port opposite, under DualPI2, with
// edge0->agg0 down from 500us for 9ms and the given traffic patterns. The
// outage drops packets minted on other islands on the island holding
// edge0, and a pattern's flood frames die on the victim's island: two
// islands absorb packets that others mint.
func shardedFaultTester(t *testing.T, ports int, alg string, enableINT bool, flows int, patterns string) *Tester {
	t.Helper()
	dual, err := aqm.ParseSpec("dualpi2:target=25us,tupdate=100us,step=50us")
	if err != nil {
		t.Fatal(err)
	}
	tr := newTester(t, Config{
		Algorithm: mustAlg(t, alg), DataPorts: ports, Seed: 1, AQM: dual, EnableINT: enableINT,
		Topology: fabric.Spec{Kind: fabric.KindFatTree, K: 4}, Shards: 2,
	})
	fp, err := faults.ParseSpec("linkdown edge0->agg0 at 500us for 9ms")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.InstallFaults(fp); err != nil {
		t.Fatal(err)
	}
	wp, err := workload.ParseSpec(patterns)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.InstallPatterns(wp); err != nil {
		t.Fatal(err)
	}
	for tx := 0; tx < ports; tx++ {
		for i := 0; i < flows; i++ {
			if err := tr.StartFlow(packet.FlowID(flows*tx+i), tx, (tx+ports/2)%ports, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tr
}

// runReadingSpares runs tr for d and returns the largest free list each
// partition's pool held, read on the control engine every 10us, between
// rounds.
func runReadingSpares(tr *Tester, d sim.Duration) []int {
	most := make([]int, len(tr.pools))
	var probe sim.Func
	probe = func() {
		for g, p := range tr.pools {
			most[g] = max(most[g], p.Spare())
		}
		tr.Eng.Schedule(10*sim.Microsecond, probe)
	}
	tr.Eng.Schedule(0, probe)
	tr.Run(sim.Time(d))
	return most
}

// Each partition's pool keeps what it frees, so the island that absorbs
// the outage's drops and the incast's frames would hoard free packets while
// the islands minting them allocate more: without the barrier's hand-over,
// at eight flows a port, partition 0's free list grew to ~1,300 packets in
// 10ms while the others stayed at or under ~400. With it, every list read
// at a barrier stays within the high-water mark, plus a slab's slack.
func TestShardedFreeListsStayBounded(t *testing.T) {
	const slab = 64 // the largest slab a packet.Pool grows by
	tr := shardedFaultTester(t, 12, "dctcp", false, 8, "incast:period=100us,fanin=3,victim=1,size=80")
	most := runReadingSpares(tr, 10*sim.Millisecond)
	down, err := tr.ResolveLink("edge0->agg0")
	if err != nil {
		t.Fatal(err)
	}
	if down.Stats().DownDrops == 0 {
		t.Fatal("the outage dropped nothing: no island absorbed another's packets")
	}
	for g, n := range most {
		if n > shard.PoolHighWater+slab {
			t.Errorf("partition %d's free list reached %d packets, want <= %d", g, n, shard.PoolHighWater+slab)
		}
	}
	t.Logf("largest free list per partition at a barrier: %v", most)
}

// A partition of transit switches mints no packet, so the barrier leaves
// it none: at four ports a fattree:4's pods 2 and 3 hold no host, and
// their partitions only forward, and drop, what pods 0 and 1 send across
// the core. The minting partitions are kept at the high-water mark.
func TestShardedTransitPartitionsKeepNoFreePackets(t *testing.T) {
	tr := shardedFaultTester(t, 4, "dctcp", false, 8, "incast:period=100us,fanin=3,victim=1,size=80")
	minting := make([]bool, len(tr.pools))
	for _, isl := range tr.islands {
		minting[isl.part] = true
	}
	most := runReadingSpares(tr, 5*sim.Millisecond)
	transit := 0
	for g, n := range most {
		switch {
		case !minting[g]:
			transit++
			if n != 0 {
				t.Errorf("transit partition %d held %d free packets at a barrier, want 0", g, n)
			}
		case n != shard.PoolHighWater:
			t.Errorf("minting partition %d held at most %d free packets at a barrier, want %d", g, n, shard.PoolHighWater)
		}
	}
	if transit == 0 {
		t.Fatal("no partition of transit switches: the test proves nothing")
	}
}

// No sharded tester path takes a packet, or a telemetry record, from the
// shared pool: the NICs, pipelines and receivers, the fabric's queues and
// links, injected pattern traffic, and the out-of-line INT stacks all draw
// from the pool of the partition they run on.
func TestShardedTesterTakesNothingFromSharedPool(t *testing.T) {
	for _, c := range []struct {
		alg string
		int bool
	}{{"dctcp", false}, {"hpcc", true}} {
		before := packet.SharedTakes()
		tr := shardedFaultTester(t, 12, c.alg, c.int, 4,
			"incast:period=100us,fanin=3,victim=1,size=80; flood:peak=20G,victim=4,period=400us,duty=0.25")
		tr.Run(sim.Time(sim.Millisecond))
		shared := packet.SharedTakes() - before
		if held, _ := tr.Outstanding(); held == 0 || tr.PipelineCounters().DataTx == 0 {
			t.Fatalf("%s: no packets counted in flight", c.alg)
		}
		if shared != 0 {
			t.Errorf("%s (INT %v): %d packets or telemetry records taken from the shared pool, want 0", c.alg, c.int, shared)
		}
	}
}
