// Quickstart: deploy a tester, run one DCTCP flow at 100 Gbps through a
// pass-through network, and read the results back from the control plane.
package main

import (
	"fmt"
	"log"

	"marlin"
)

func main() {
	// Deploy: pick an algorithm, let everything else default (MTU 1024,
	// 100 Gbps ports, a 12-port pipeline plan).
	t, err := marlin.NewTester(marlin.TestConfig{
		Algorithm: "dctcp",
		Ports:     2,
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// One unbounded flow from tester port 0 to tester port 1, traced from
	// its first CC event.
	if err := t.TraceFlow(0); err != nil {
		log.Fatal(err)
	}
	if err := t.StartFlow(0, 0, 1, 0); err != nil {
		log.Fatal(err)
	}

	// Run two simulated milliseconds.
	const horizon = 2 * marlin.Millisecond
	t.RunFor(horizon)

	// Read the hardware registers.
	snap := t.Registers()
	fmt.Println(marlin.FormatSnapshot(snap))

	gbps := float64(t.FlowTxBytes(0)) * 8 / horizon.Seconds() / 1e9
	fmt.Printf("flow 0 throughput: %.2f Gbps (line rate is ~98 after slow start)\n", gbps)

	// The FPGA logs every CC-parameter change (§5.1) and the host keeps
	// the traced flow's; show the last window update.
	trace := t.FlowTrace(0)
	if len(trace) == 0 {
		log.Fatal("no trace recorded for flow 0")
	}
	fmt.Printf("traced %d CC events; final cwnd = %d packets\n",
		len(trace), trace[len(trace)-1].A)

	if losses := t.Losses(); losses.FalseLosses != 0 {
		log.Fatalf("tester-internal loss: %+v", losses)
	}
	fmt.Println("no false losses: the switch and FPGA stayed in sync")
}
