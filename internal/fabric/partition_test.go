package fabric

import (
	"reflect"
	"testing"

	"marlin/internal/aqm"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

func TestPartitionSpecShapes(t *testing.T) {
	cases := []struct {
		spec  Spec
		hosts int
		want  PartitionPlan
	}{
		{Spec{Kind: KindDumbbell}, 4, PartitionPlan{
			Parts:      2,
			SwitchPart: []int{0, 1},
			HostPart:   []int{0, 1, 0, 1},
		}},
		{Spec{Kind: KindParkingLot, N: 3}, 5, PartitionPlan{
			Parts:      3,
			SwitchPart: []int{0, 1, 2},
			HostPart:   []int{0, 1, 2, 0, 1},
		}},
		// Leaves 0,1 then spines 0,1: spine s joins partition s mod L.
		{Spec{Kind: KindLeafSpine, Leaves: 2, Spines: 2}, 4, PartitionPlan{
			Parts:      2,
			SwitchPart: []int{0, 1, 0, 1},
			HostPart:   []int{0, 1, 0, 1},
		}},
		// fattree:4 — 8 edge (2 per pod), 8 agg (2 per pod), 4 core
		// (core c joins pod c mod 4); hosts follow their edge switch.
		{Spec{Kind: KindFatTree, K: 4}, 16, PartitionPlan{
			Parts: 4,
			SwitchPart: []int{
				0, 0, 1, 1, 2, 2, 3, 3, // edge
				0, 0, 1, 1, 2, 2, 3, 3, // agg
				0, 1, 2, 3, // core
			},
			HostPart: []int{0, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 1, 2, 2, 3, 3},
		}},
	}
	for _, tc := range cases {
		got, err := PartitionSpec(tc.spec, tc.hosts)
		if err != nil {
			t.Errorf("PartitionSpec(%v, %d): %v", tc.spec, tc.hosts, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("PartitionSpec(%v, %d) =\n%+v, want\n%+v", tc.spec, tc.hosts, got, tc.want)
		}
	}
}

func TestPartitionSpecErrors(t *testing.T) {
	if _, err := PartitionSpec(Spec{}, 4); err == nil {
		t.Error("zero spec accepted")
	}
	if _, err := PartitionSpec(Spec{Kind: KindDumbbell}, 0); err == nil {
		t.Error("zero hosts accepted")
	}
	if _, err := PartitionSpec(Spec{Kind: "ring"}, 4); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestEnginesHookDoesNotPerturbDraws is the RNG re-partitioning regression:
// supplying an Engines hook (here mapping every switch to the same engine,
// so the build exercises the hook without needing a runner) must leave every
// build-order RNG draw — and therefore every probabilistic marking decision
// — exactly where the hook-free build put it.
func TestEnginesHookDoesNotPerturbDraws(t *testing.T) {
	spec := Spec{Kind: KindLeafSpine, Leaves: 2, Spines: 2}
	const hosts = 4
	table := map[packet.FlowID]int{}
	for fl := packet.FlowID(1); fl <= 12; fl++ {
		table[fl] = 0 // incast into host 0 to build queues and draw marks
	}
	run := func(hook bool) ([]netem.Stats, []PathCounter) {
		eng := sim.NewEngine()
		f, _ := build(t, eng, spec, hosts, table, func(c *Config) {
			red, err := aqm.ParseSpec("red:min=2000,max=30000")
			if err != nil {
				t.Fatal(err)
			}
			c.AQM = red
			c.QueueBytes = 32 << 10
			if hook {
				c.Engines = func(int) *sim.Engine { return eng }
			}
		})
		for fl := packet.FlowID(1); fl <= 12; fl++ {
			src := int(fl) % (hosts - 1)
			for i := 0; i < 50; i++ {
				f.HostUplink(1 + src).Send(data(fl, uint32(i)))
			}
		}
		eng.RunAll()
		return f.Stats(), f.ECMPPaths()
	}
	plainStats, plainPaths := run(false)
	hookStats, hookPaths := run(true)
	if !reflect.DeepEqual(plainStats, hookStats) {
		t.Errorf("Engines hook perturbed switch stats:\nplain %+v\nhook  %+v", plainStats, hookStats)
	}
	if !reflect.DeepEqual(plainPaths, hookPaths) {
		t.Errorf("Engines hook perturbed ECMP paths:\nplain %+v\nhook  %+v", plainPaths, hookPaths)
	}
}
