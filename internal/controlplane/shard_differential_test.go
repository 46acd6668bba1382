package controlplane

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"marlin/internal/measure"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

// shardDigest deploys the spec, drives a deterministic workload, and
// serializes every observable the paper's methodology cares about: the full
// register snapshot (switch counters, NIC stats, per-port counters, network
// telemetry including per-band AQM marks/drops, fault recoveries, overload
// windows), the loss report, and the flow completion records.
func shardDigest(t *testing.T, spec Spec) string {
	t.Helper()
	eng := sim.NewEngine()
	tr, err := spec.Deploy(eng)
	if err != nil {
		t.Fatalf("Deploy(%+v): %v", spec, err)
	}
	ports := tr.Plan().DataPorts
	var id packet.FlowID
	for p := 0; p < ports; p++ {
		rx := (p + 1) % ports
		// One open-ended flow per port keeps queues loaded through the
		// whole window (and any fault); one finite flow exercises the
		// completion path so FCT recording is part of the digest.
		if err := tr.StartFlow(id, p, rx, 0); err != nil {
			t.Fatal(err)
		}
		id++
		if err := tr.StartFlow(id, p, rx, 400); err != nil {
			t.Fatal(err)
		}
		id++
	}
	tr.Run(sim.Time(2 * sim.Millisecond))
	out := struct {
		Snapshot Snapshot
		Losses   LossReport
		FCTs     []measure.FCTRecord
	}{ReadRegisters(tr), ReadLosses(tr), tr.FCTs.Records()}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func withGOMAXPROCS(n int, fn func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// TestShardedMatchesSingle is the differential determinism gate of the
// parallel event core: over {dumbbell, leafspine, fattree} x {drop-tail,
// DualPI2} x {no faults, linkdown plan} x {closed-loop, incast storm}, the
// full observable digest must be byte-identical between Shards=1 and
// Shards in {2,4}, at GOMAXPROCS 1 and 8 — window-mode dctcp throughout,
// plus one rate-mode dcqcn row and one plan with no cut.
func TestShardedMatchesSingle(t *testing.T) {
	check := func(name string, spec Spec) {
		t.Run(name, func(t *testing.T) {
			spec.Shards = 1
			base := shardDigest(t, spec)
			spec.Shards = 2
			if got := shardDigest(t, spec); got != base {
				t.Error("shards=2 digest differs from shards=1")
			}
			spec.Shards = 4
			for _, gmp := range []int{1, 8} {
				withGOMAXPROCS(gmp, func() {
					if got := shardDigest(t, spec); got != base {
						t.Errorf("shards=4 GOMAXPROCS=%d digest differs from shards=1", gmp)
					}
				})
			}
		})
	}
	topos := []struct {
		topo     string
		ports    int
		linkdown string
	}{
		{"dumbbell", 4, "linkdown left->right at 1ms for 200us"},
		{"leafspine:2x2", 4, "linkdown leaf0->spine1 at 1ms for 200us"},
		{"fattree:4", 8, "linkdown edge0->agg0 at 1ms for 200us"},
	}
	aqms := []string{"ecn:k=65", "dualpi2:target=25us,tupdate=100us,step=50us"}
	patterns := []string{"", "incast:period=1ms,fanin=3,victim=1,size=80"}
	for _, tc := range topos {
		for ai, aqmSpec := range aqms {
			for fi, faultSpec := range []string{"", tc.linkdown} {
				for pi, patternSpec := range patterns {
					if testing.Short() && ai+fi+pi > 1 {
						continue // -short: no-extras plus one single-extra combo each
					}
					spec := Spec{
						Algorithm:      "dctcp",
						Ports:          tc.ports,
						Topology:       tc.topo,
						AQM:            aqmSpec,
						Faults:         faultSpec,
						Pattern:        patternSpec,
						DCQCNTimeScale: 30,
						Seed:           1,
					}
					check(fmt.Sprintf("%s/aqm=%d/fault=%d/pattern=%d", tc.topo, ai, fi, pi), spec)
				}
			}
		}
	}
	// One rate-mode row: timer-paced DCQCN against the RoCE go-back-N
	// receiver, through the same outage (carrier drops force the rewind).
	check("leafspine:2x2/dcqcn/fault=1", Spec{
		Algorithm:      "dcqcn",
		Ports:          4,
		AQM:            "ecn:k=65",
		Topology:       "leafspine:2x2",
		Faults:         "linkdown leaf0->spine1 at 1ms for 200us",
		DCQCNTimeScale: 30,
		Seed:           1,
	})
	// One plan that cuts no trunk: a single leaf is one island, which the
	// runner drives with the link delay as its lookahead all the same.
	check("leafspine:1x2/uncut", Spec{Algorithm: "dctcp", Ports: 4, Topology: "leafspine:1x2", Seed: 1})
}

// TestShardedSpecValidation pins the configuration surface: sharding needs
// a topology and refuses the cross-partition coupling PFC would need.
func TestShardedSpecValidation(t *testing.T) {
	bad := []Spec{
		{Algorithm: "dctcp", Ports: 4, Shards: -1, Seed: 1},
		{Algorithm: "dctcp", Ports: 4, Shards: 2, Seed: 1},                                             // no topology
		{Algorithm: "dctcp", Ports: 4, Shards: 2, Topology: "dumbbell", EnablePFC: true, Seed: 1},      // PFC couples partitions
		{Algorithm: "dctcp", Ports: 4, Shards: 2, Topology: "dumbbell", ReceiverOnFPGA: true, Seed: 1}, // FPGA receiver is unsharded
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
	ok := Spec{Algorithm: "dctcp", Ports: 4, Shards: 2, Topology: "dumbbell", Seed: 1}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid sharded spec rejected: %v", err)
	}
}
