package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"marlin"
	"marlin/internal/fleet"
)

// parse runs a command's flag parsing alone and returns the TestConfig it
// would deploy (for sweep: the base every point starts from).
func parse(cmd string, args []string) (cfg marlin.TestConfig, err error) {
	switch cmd {
	case "test":
		cfg, _, err = parseTest(args)
	case "bench":
		cfg, _, err = parseBench(args)
	case "dot":
		cfg, err = parseDot(args)
	case "sweep":
		cfg, _, err = parseSweep(args)
	}
	return cfg, err
}

// TestDocumentedInvocations parses the argument lists README, CI and the
// verify skill show, and compares each with the TestConfig literal the
// hand-written flag code built for it before the flags came from the key
// table. FlowsPerPort now carries -flows (Deploy never reads it; each
// command starts that many flows itself), and sweep's Seed carries the
// campaign seed — both used to live beside the literal. A sweep's every
// point must also validate.
func TestDocumentedInvocations(t *testing.T) {
	const dualpi2 = "dualpi2:target=25us,tupdate=100us,step=50us"
	cases := []struct {
		cmd, args string
		want      marlin.TestConfig
		wantErr   string
	}{
		{cmd: "test", args: "",
			want: marlin.TestConfig{Algorithm: "dctcp", Ports: 4, FlowsPerPort: 1, AQM: "ecn:k=65", DCQCNTimeScale: 30, Seed: 1}},
		{cmd: "test", args: "-algo dctcp -fanin -duration 5ms",
			want: marlin.TestConfig{Algorithm: "dctcp", Ports: 4, FlowsPerPort: 1, AQM: "ecn:k=65", DCQCNTimeScale: 30, Seed: 1}},
		{cmd: "test", args: "-topology leafspine:2x2 -shards 4 -algo dcqcn -duration 2ms",
			want: marlin.TestConfig{Algorithm: "dcqcn", Ports: 4, FlowsPerPort: 1, AQM: "ecn:k=65", Topology: "leafspine:2x2", Shards: 4, DCQCNTimeScale: 30, Seed: 1}},
		{cmd: "test", args: "-algo dctcp -ports 2 -duration 8ms -faults 'linkdown fwd1 at 2ms for 300us'",
			want: marlin.TestConfig{Algorithm: "dctcp", Ports: 2, FlowsPerPort: 1, AQM: "ecn:k=65", Faults: "linkdown fwd1 at 2ms for 300us", DCQCNTimeScale: 30, Seed: 1}},
		{cmd: "test", args: "-algo dctcp -ports 4 -topology leafspine:2x2 -duration 8ms -pattern incast:period=2ms,fanin=6,victim=1,size=200",
			want: marlin.TestConfig{Algorithm: "dctcp", Ports: 4, FlowsPerPort: 1, AQM: "ecn:k=65", Topology: "leafspine:2x2", Pattern: "incast:period=2ms,fanin=6,victim=1,size=200", DCQCNTimeScale: 30, Seed: 1}},
		// -aqm replaces the defaulted step ECN ...
		{cmd: "test", args: "-algo dctcp -ports 3 -fanin -duration 4ms -aqm dualpi2:target=10us,tupdate=50us,step=20us,shift=20us,alpha=250,beta=2500",
			want: marlin.TestConfig{Algorithm: "dctcp", Ports: 3, FlowsPerPort: 1, AQM: "dualpi2:target=10us,tupdate=50us,step=20us,shift=20us,alpha=250,beta=2500", DCQCNTimeScale: 30, Seed: 1}},
		// ... and both flags write the one marking policy, so the later wins;
		// -ecn 0 clears step ECN only.
		{cmd: "test", args: "-aqm pi2 -ecn 65",
			want: marlin.TestConfig{Algorithm: "dctcp", Ports: 4, FlowsPerPort: 1, AQM: "ecn:k=65", DCQCNTimeScale: 30, Seed: 1}},
		{cmd: "test", args: "-ecn 8 -aqm pi2",
			want: marlin.TestConfig{Algorithm: "dctcp", Ports: 4, FlowsPerPort: 1, AQM: "pi2", DCQCNTimeScale: 30, Seed: 1}},
		{cmd: "test", args: "-aqm pi2 -ecn 0",
			want: marlin.TestConfig{Algorithm: "dctcp", Ports: 4, FlowsPerPort: 1, AQM: "pi2", DCQCNTimeScale: 30, Seed: 1}},
		// The two CI golden invocations.
		{cmd: "test", args: "-algo dctcp -topology fattree:4 -ports 8 -aqm " + dualpi2 + " -faults 'linkdown edge0->agg0 at 1ms for 200us' -pattern incast:period=1ms,fanin=3,victim=1,size=80 -duration 2ms -seed 1 -shards 4",
			want: marlin.TestConfig{Algorithm: "dctcp", Ports: 8, FlowsPerPort: 1, AQM: dualpi2, Topology: "fattree:4", Faults: "linkdown edge0->agg0 at 1ms for 200us", Pattern: "incast:period=1ms,fanin=3,victim=1,size=80", Shards: 4, DCQCNTimeScale: 30, Seed: 1}},
		{cmd: "test", args: "-algo dcqcn -fanin -topology leafspine:2x2 -ports 4 -faults 'linkdown leaf0->spine0 at 1ms for 200us' -duration 2ms -seed 1 -shards 1",
			want: marlin.TestConfig{Algorithm: "dcqcn", Ports: 4, FlowsPerPort: 1, AQM: "ecn:k=65", Topology: "leafspine:2x2", Faults: "linkdown leaf0->spine0 at 1ms for 200us", Shards: 1, DCQCNTimeScale: 30, Seed: 1}},
		{cmd: "test", args: "-algo hpcc -int -pfc -fpgarecv -pcap out.pcap",
			want: marlin.TestConfig{Algorithm: "hpcc", Ports: 4, FlowsPerPort: 1, AQM: "ecn:k=65", EnableINT: true, EnablePFC: true, ReceiverOnFPGA: true, DCQCNTimeScale: 30, Seed: 1}},
		{cmd: "test", args: "-ports -1", wantErr: `bad ports "-1"`},
		// -duration takes spec.Duration's rule, as a scenario's run line does.
		{cmd: "test", args: "-duration -1ms", wantErr: `bad duration "-1ms"`},
		{cmd: "test", args: "-duration 2600h", wantErr: `bad duration "2600h"`},

		{cmd: "bench", args: "-algo dcqcn -ports 8 -flows 64 -duration 20ms -cpuprofile cpu.pb.gz -memprofile mem.pb.gz -trace trace.out",
			want: marlin.TestConfig{Algorithm: "dcqcn", Ports: 8, FlowsPerPort: 64, AQM: "ecn:k=65", DCQCNTimeScale: 30, Seed: 1}},
		{cmd: "bench", args: "-topology fattree:4 -ports 8 -shards 2 -fanin -fpgarecv=false -reps 1",
			want: marlin.TestConfig{Algorithm: "dctcp", Ports: 8, FlowsPerPort: 1, AQM: "ecn:k=65", Topology: "fattree:4", Shards: 2, DCQCNTimeScale: 30, Seed: 1}},
		{cmd: "bench", args: "-reps 0", wantErr: "-reps must be >= 1"},
		// bench and sweep preset ecn 65 too, and -aqm replaces it there.
		{cmd: "bench", args: "-aqm pi2 -reps 1",
			want: marlin.TestConfig{Algorithm: "dctcp", Ports: 4, FlowsPerPort: 1, AQM: "pi2", DCQCNTimeScale: 30, Seed: 1}},
		{cmd: "bench", args: "-duration -1ms", wantErr: `bad duration "-1ms"`},

		{cmd: "dot", args: "-topology leafspine:2x2 -ports 4",
			want: marlin.TestConfig{Algorithm: "dctcp", Ports: 4, Topology: "leafspine:2x2", Seed: 1}},
		{cmd: "dot", args: "-pfc -fpgarecv",
			want: marlin.TestConfig{Algorithm: "dctcp", Ports: 4, EnablePFC: true, ReceiverOnFPGA: true, Seed: 1}},

		// sweep never defaulted dcqcnscale; its points keep paper timers.
		{cmd: "sweep", args: "-axis ecn=8,65,200 -duration 5ms",
			want: marlin.TestConfig{Algorithm: "dctcp", Ports: 5, FlowsPerPort: 2, AQM: "ecn:k=65", Seed: 1}},
		{cmd: "sweep", args: "-axis ecn=8,20,65,200,600 -axis algo=dctcp,dcqcn -reps 3 -j 2 -journal sweep.jsonl",
			want: marlin.TestConfig{Algorithm: "dctcp", Ports: 5, FlowsPerPort: 2, AQM: "ecn:k=65", Seed: 1}},
		{cmd: "sweep", args: "-axis shards=1,2 -axis topology=leafspine:2x2 -duration 1ms -algo dcqcn -ports 4 -flows 3 -seed 7",
			want: marlin.TestConfig{Algorithm: "dcqcn", Ports: 4, FlowsPerPort: 3, AQM: "ecn:k=65", Seed: 7}},
		{cmd: "sweep", args: "-aqm pi2 -axis seed=1,2",
			want: marlin.TestConfig{Algorithm: "dctcp", Ports: 5, FlowsPerPort: 2, AQM: "pi2", Seed: 1}},
		// So does an aqm axis, point by point: the preset once made every
		// point of this sweep fail to validate.
		{cmd: "sweep", args: "-axis aqm=pi2,red -duration 1ms",
			want: marlin.TestConfig{Algorithm: "dctcp", Ports: 5, FlowsPerPort: 2, AQM: "ecn:k=65", Seed: 1}},
		// A discipline's parameters hold commas and stay one value.
		{cmd: "sweep", args: "-axis aqm=dualpi2:target=25us,tupdate=100us,pi2 -duration 1ms",
			want: marlin.TestConfig{Algorithm: "dctcp", Ports: 5, FlowsPerPort: 2, AQM: "ecn:k=65", Seed: 1}},
		{cmd: "sweep", args: "", wantErr: "need at least one -axis"},
		{cmd: "sweep", args: "-axis queue=-1", wantErr: `bad queue "-1"`},
		{cmd: "sweep", args: "-axis ecn=8 -duration -1ms", wantErr: `bad duration "-1ms"`},
		{cmd: "sweep", args: "-axis ecn=8 -format tsv", wantErr: `unknown -format "tsv"`},
	}
	for _, c := range cases {
		got, err := parse(c.cmd, splitArgs(c.args))
		switch {
		case c.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s %s: err = %v, want %q", c.cmd, c.args, err, c.wantErr)
			}
		case err != nil:
			t.Errorf("%s %s: %v", c.cmd, c.args, err)
		case !reflect.DeepEqual(got, c.want):
			t.Errorf("%s %s:\n got %+v\nwant %+v", c.cmd, c.args, got, c.want)
		case c.cmd == "sweep":
			// Every point of the sweep is a valid test.
			_, a, _ := parseSweep(splitArgs(c.args))
			for _, pt := range fleet.Cartesian(a.script.Sweeps) {
				spec := got
				if err := pt.Apply(&spec); err != nil {
					t.Errorf("%s %s: point %s: %v", c.cmd, c.args, pt.ID(), err)
				} else if err := marlin.Validate(spec); err != nil {
					t.Errorf("%s %s: point %s: %v", c.cmd, c.args, pt.ID(), err)
				}
			}
		}
	}
}

// TestCommandArgs checks the flags that are not configuration keys land
// where each command reads them.
func TestCommandArgs(t *testing.T) {
	_, ta, err := parseTest(splitArgs("-duration 8ms -fanin -pcap out.pcap"))
	if err != nil || ta != (testArgs{dur: 8 * marlin.Millisecond, fanin: true, pcap: "out.pcap"}) {
		t.Errorf("test args %+v, %v", ta, err)
	}
	_, ba, err := parseBench(splitArgs("-reps 5 -trace t.out"))
	if err != nil || ba != (benchArgs{dur: 5 * marlin.Millisecond, reps: 5, trace: "t.out"}) {
		t.Errorf("bench args %+v, %v", ba, err)
	}
	_, sa, err := parseSweep(splitArgs("-axis ecn=8,65 -axis pfc=on,off -reps 3 -j 2 -timeout 1s -journal j.jsonl -format csv -duration 2ms"))
	if err != nil {
		t.Fatal(err)
	}
	if sa.reps != 3 || sa.fleet.Workers != 2 || sa.fleet.Timeout != time.Second || sa.fleet.Journal != "j.jsonl" || sa.format != "csv" {
		t.Errorf("sweep args %+v", sa)
	}
	want := "set algo dctcp\nset ports 5\nset flows 2\nset ecn 65\nset seed 1\nsweep ecn 8,65\nsweep pfc on,off\n" +
		"at 0ms fanin size 20..400 loop\nrun 2ms\nreport total_gbps fct_p50_us fct_p99_us network_drops\n"
	if got := sa.script.String(); got != want {
		t.Errorf("sweep script:\n%s\nwant\n%s", got, want)
	}
}

// splitArgs splits on spaces, keeping 'single-quoted' runs whole, the way
// the CI step's eval does.
func splitArgs(s string) []string {
	var out []string
	for i, part := range strings.Split(s, "'") {
		if i%2 == 1 {
			out = append(out, part)
		} else {
			out = append(out, strings.Fields(part)...)
		}
	}
	return out
}
