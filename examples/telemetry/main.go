// Telemetry: run an INT-consuming HPCC test and inspect everything the
// tester can observe — the fine-grained CC trace (§5.1), the FPGA's RTT
// registers, and a pcap capture of the 64-byte SCHE/INFO conversation
// between the devices.
package main

import (
	"fmt"
	"log"
	"os"

	"marlin"
)

func main() {
	cfg := marlin.TestConfig{
		Algorithm: "hpcc",
		Ports:     3,
		EnableINT: true,
		Seed:      13,
	}
	for _, warn := range marlin.Lint(cfg) {
		fmt.Println("lint:", warn)
	}
	t, err := marlin.NewTester(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Capture the device-link conversation to a Wireshark-readable file.
	pcapFile, err := os.CreateTemp("", "marlin-devices-*.pcap")
	if err != nil {
		log.Fatal(err)
	}
	defer pcapFile.Close()
	capt, err := t.CaptureDeviceLinks(pcapFile, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Two HPCC flows share the destination port; INT steers them to a
	// near-empty queue. Flow 0's CC trace is kept.
	if err := t.TraceFlow(0); err != nil {
		log.Fatal(err)
	}
	if err := t.StartFlow(0, 0, 2, 0); err != nil {
		log.Fatal(err)
	}
	if err := t.StartFlow(1, 1, 2, 0); err != nil {
		log.Fatal(err)
	}
	t.RunFor(3 * marlin.Millisecond)

	// 1. The fine-grained CC trace: window evolution per event.
	trace := t.FlowTrace(0)
	if len(trace) == 0 {
		log.Fatal("no trace recorded for flow 0")
	}
	fmt.Printf("flow 0: %d traced CC events; window settled at %d packets\n",
		len(trace), trace[len(trace)-1].A)

	// 2. RTT registers: with HPCC the queue stays empty, so the RTT
	// distribution hugs the propagation floor.
	samples, count, ewma := t.RTT()
	fmt.Printf("rtt: %d probes, ewma %.1f us\n", count, ewma)
	h := marlin.NewHistogram("us")
	h.AddAll(samples)
	fmt.Print(h.Render(32))

	// 3. The device conversation on disk.
	fmt.Printf("captured %d control packets to %s\n", capt.Packets(), pcapFile.Name())

	rates := []float64{
		float64(t.FlowTxBytes(0)) * 8 / 0.003 / 1e9,
		float64(t.FlowTxBytes(1)) * 8 / 0.003 / 1e9,
	}
	fmt.Printf("rates: %.1f / %.1f Gbps, jain %.4f\n",
		rates[0], rates[1], marlin.JainIndex(rates))
}
