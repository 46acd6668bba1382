package controlplane

import (
	"reflect"
	"testing"

	"marlin/internal/sim"
)

// TestValidateErrorPaths pins the exact error text of every cross-field
// and range rule Validate enforces. Exact strings matter here: operators
// grep logs for them, and a refactor that merges two rules into one vague
// message would silently degrade the diagnostics without failing any
// looser Contains-style check.
func TestValidateErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // exact Error() text; "" means the spec must validate
	}{
		{
			name: "shards with PFC",
			spec: Spec{Algorithm: "dctcp", Topology: "dumbbell", Shards: 2, EnablePFC: true},
			want: "core: Shards and EnablePFC are incompatible (pause frames would act across partitions mid-round)",
		},
		{
			name: "shards with FPGA receiver",
			spec: Spec{Algorithm: "dctcp", Topology: "dumbbell", Shards: 2, ReceiverOnFPGA: true},
			want: "core: Shards and ReceiverOnFPGA are incompatible (the reserved-port path is not partitioned)",
		},
		{
			name: "shards without topology",
			spec: Spec{Algorithm: "dctcp", Shards: 2},
			want: "core: Shards requires a multi-switch Topology (the canonical single switch has no cut to parallelize over)",
		},
		{
			name: "negative shards",
			spec: Spec{Algorithm: "dctcp", Topology: "dumbbell", Shards: -3},
			want: "controlplane: negative shard count -3",
		},
		{
			name: "AQM with step ECN",
			spec: Spec{Algorithm: "dctcp", AQM: "dualpi2", ECNThresholdPkts: 65},
			want: `controlplane: ECNThresholdPkts 65 and AQM "dualpi2" are two marking policies (ECNThresholdPkts N is AQM "ecn:k=N")`,
		},
		{
			name: "AQM kind named in the error",
			spec: Spec{Algorithm: "dctcp", AQM: "red:min=30000,max=90000", ECNThresholdPkts: 65},
			want: `controlplane: ECNThresholdPkts 65 and AQM "red:min=30000,max=90000" are two marking policies (ECNThresholdPkts N is AQM "ecn:k=N")`,
		},
		{
			name: "ECNThresholdPkts beside step ECN",
			spec: Spec{Algorithm: "dctcp", AQM: "ecn:k=20", ECNThresholdPkts: 65},
			want: `controlplane: ECNThresholdPkts 65 and AQM "ecn:k=20" are two marking policies (ECNThresholdPkts N is AQM "ecn:k=N")`,
		},
		{
			name: "step ECN at zero packets",
			spec: Spec{Algorithm: "dctcp", AQM: "ecn:k=0"},
			want: `aqm: "ecn:k=0": k must be at least 1`,
		},
		{
			name: "pattern victim beyond port count",
			spec: Spec{Algorithm: "dctcp", Ports: 4, Pattern: "incast:period=1ms,fanin=2,size=50,victim=4"},
			want: "controlplane: pattern victim port 4 outside [0,4)",
		},
		{
			name: "pattern victim in later clause",
			spec: Spec{Algorithm: "dctcp", Ports: 4, Pattern: "incast:period=1ms,fanin=2,size=50,victim=1;flood:peak=20G,victim=9"},
			want: "controlplane: pattern victim port 9 outside [0,4)",
		},
		{
			name: "pattern victim at boundary is valid",
			spec: Spec{Algorithm: "dctcp", Ports: 4, Pattern: "incast:period=1ms,fanin=2,size=50,victim=3"},
		},
		{
			name: "pattern victim at the plan boundary without explicit ports",
			// Ports == 0 resolves to the device plan's 12 data ports.
			spec: Spec{Algorithm: "dctcp", Pattern: "incast:period=1ms,fanin=2,size=50,victim=11"},
		},
		{
			name: "pattern victim beyond the plan ports without explicit ports",
			spec: Spec{Algorithm: "dctcp", Pattern: "incast:period=1ms,fanin=2,size=50,victim=40"},
			want: "controlplane: pattern victim port 40 outside [0,12)",
		},
		{
			name: "shards on a multi-switch topology is valid",
			spec: Spec{Algorithm: "dctcp", Topology: "leafspine:2x2", Shards: 4},
		},
		{
			name: "step ECN without AQM is valid",
			spec: Spec{Algorithm: "dctcp", ECNThresholdPkts: 65},
		},
		{
			name: "step ECN by AQM is valid",
			spec: Spec{Algorithm: "dctcp", AQM: "ecn:k=65"},
		},
		{
			name: "negative ports",
			spec: Spec{Algorithm: "dctcp", Ports: -1},
			want: "controlplane: negative Ports",
		},
		{
			name: "negative MTU",
			spec: Spec{Algorithm: "dctcp", MTU: -1024},
			want: "controlplane: negative MTU",
		},
		{
			name: "negative ECN threshold",
			spec: Spec{Algorithm: "dctcp", ECNThresholdPkts: -3},
			want: "controlplane: negative ECNThresholdPkts",
		},
		{
			name: "negative queue",
			spec: Spec{Algorithm: "dctcp", NetQueueBytes: -1},
			want: "controlplane: negative NetQueueBytes",
		},
		{
			name: "negative extra hops",
			spec: Spec{Algorithm: "dctcp", ExtraHops: -1},
			want: "controlplane: negative ExtraHops",
		},
		{
			name: "negative link delay",
			spec: Spec{Algorithm: "dctcp", LinkDelay: -2 * sim.Microsecond},
			want: "controlplane: negative LinkDelay",
		},
		{
			name: "negative DCQCN time scale",
			spec: Spec{Algorithm: "dcqcn", DCQCNTimeScale: -30},
			want: "controlplane: negative DCQCNTimeScale",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want %q", tc.want)
			}
			if err.Error() != tc.want {
				t.Fatalf("Validate() = %q, want %q", err.Error(), tc.want)
			}
		})
	}
}

// TestScalarEdgesDeployOrError walks every scalar field through a negative
// value and zero: Deploy must build a tester that runs or return an error,
// never panic (Ports -1 used to reach makeslice, LinkDelay -2us the
// engine's schedule-before-now check).
func TestScalarEdgesDeployOrError(t *testing.T) {
	typ := reflect.TypeOf(Spec{})
	for i := 0; i < typ.NumField(); i++ {
		for _, neg := range []bool{true, false} {
			spec := Spec{Algorithm: "dctcp", Ports: 2}
			f := reflect.ValueOf(&spec).Elem().Field(i)
			switch {
			case f.CanInt() && neg:
				f.SetInt(-2_000_000)
			case f.CanInt():
				f.SetInt(0)
			case f.CanFloat() && neg:
				f.SetFloat(-2)
			case f.CanFloat():
				f.SetFloat(0)
			default:
				continue // strings, bools, Params, the unsigned Seed
			}
			tester, err := spec.Deploy(sim.NewEngine())
			if err != nil {
				continue
			}
			if err := tester.StartFlow(0, 0, 1, 0); err != nil {
				t.Errorf("%s neg=%v: deployed but StartFlow: %v", typ.Field(i).Name, neg, err)
				continue
			}
			tester.Run(sim.Time(50 * sim.Microsecond))
		}
	}
}
