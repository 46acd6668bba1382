// Incast: evaluate a DCQCN configuration under the n-cast-1 pattern that
// dominates storage and ML-training fabrics — many senders, one receiver,
// heavy-tailed WebSearch flow sizes, closed-loop arrivals (§7.4's
// scenario as an operator would run it).
package main

import (
	"fmt"
	"log"

	"marlin"
)

const (
	senders      = 4
	flowsPerPort = 4
	horizon      = 30 * marlin.Millisecond
)

func main() {
	t, err := marlin.NewTester(marlin.TestConfig{
		Algorithm:      "dcqcn",
		Ports:          senders + 1,
		AQM:            "ecn:k=65", // switch ECN threshold under test
		NetQueueBytes:  8 << 20,    // deep buffers stand in for PFC
		DCQCNTimeScale: 10,         // compress recovery for the short horizon
		Seed:           7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Closed loop: every completed flow immediately starts a successor
	// with a fresh WebSearch size (§7.5's arrival model).
	dist := marlin.WebSearch()
	rng := marlin.NewRand(7)
	flowPort := map[marlin.FlowID]int{}
	start := func(flow marlin.FlowID) {
		size := dist.Sample(rng)
		if err := t.StartFlow(flow, flowPort[flow], senders, size); err != nil {
			log.Fatal(err)
		}
	}
	t.OnComplete(func(flow marlin.FlowID, _ marlin.Duration) { start(flow) })

	var id marlin.FlowID
	for p := 0; p < senders; p++ {
		for k := 0; k < flowsPerPort; k++ {
			flowPort[id] = p
			start(id)
			id++
		}
	}
	t.RunFor(horizon)

	fcts := t.FCTMicros()
	if len(fcts) == 0 {
		log.Fatal("no flows completed")
	}
	cdf := marlin.NewCDF(fcts)
	fmt.Printf("%d-cast-1, %d concurrent WebSearch flows, %v: %d completions\n",
		senders, senders*flowsPerPort, horizon, len(fcts))
	for _, p := range []float64{0.5, 0.9, 0.99} {
		fmt.Printf("  FCT p%-4g %10.1f us\n", p*100, cdf.Percentile(p))
	}

	snap := t.Registers()
	fmt.Printf("bottleneck signals: %d CNPs generated, %d ECN marks echoed\n",
		snap.Switch.CnpTx, snap.Switch.InfoTx-snap.Switch.AckTx)
	if losses := t.Losses(); losses.NetworkDrops > 0 {
		fmt.Printf("WARNING: %d congestion drops — this ECN threshold lets queues overflow\n",
			losses.NetworkDrops)
	} else {
		fmt.Println("no congestion drops: ECN kept the fabric lossless")
	}
}
