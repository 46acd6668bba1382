// Package tofino models Marlin's programmable-switch data plane: the three
// modules of §4 (receiver logic, INFO generator, DATA generator), the
// per-egress-port register queues of §4.2, and the port-allocation and
// throughput-amplification arithmetic of §3.3/§4.3. Module A, the receiver
// logic, is the exported Receiver: the pipeline runs one in the switch, and
// the same logic runs on the FPGA end of the reserved port when a tester
// places it there (Figure 2's dashed path).
//
// The model substitutes for an Intel Tofino ASIC (see DESIGN.md). It keeps
// the behaviours the evaluation depends on: SCHE metadata queues that
// overflow when the FPGA overruns a port's DATA rate, line-rate-limited
// DATA emission per port, 64-byte control packets, and per-port counters
// readable by the control plane.
package tofino

import (
	"fmt"

	"marlin/internal/packet"
	"marlin/internal/sim"
)

// PortsPerPipeline is the number of 100 Gbps ports in one Tofino pipeline.
const PortsPerPipeline = 16

// Plan captures §4.3's port allocation for one pipeline and the resulting
// amplification: how many DATA ports one FPGA-facing SCHE port can feed.
type Plan struct {
	// MTU is the DATA frame size.
	MTU int
	// PortRate is the per-port line rate.
	PortRate sim.Rate
	// DataPorts is the number of ports sending/receiving test traffic.
	DataPorts int
	// FPGAPorts carry SCHE in / INFO out (one port, both directions).
	FPGAPorts int
	// EnqueuePorts perform the SCHE enqueue on the egress pipeline.
	EnqueuePorts int
	// LoopbackPorts cycle TEMP packets.
	LoopbackPorts int
	// Reserved ports are left over (usable for FPGA-side receiver logic).
	Reserved int
	// SchePPS is the SCHE arrival rate at line rate.
	SchePPS float64
	// DataPPSPerPort is the maximum DATA emission rate of one port.
	DataPPSPerPort float64
	// Throughput is the aggregate DATA rate of the pipeline.
	Throughput sim.Rate
}

// NewPlan computes the optimal allocation for one pipeline at the given
// MTU, reproducing §3.3: at MTU 1024 one 100 Gbps SCHE port drives
// floor(148.8/11.97) = 12 DATA ports for 1.2 Tbps; at MTU 1518 the
// amplification factor is 18 but the pipeline only has ports for 13.
func NewPlan(mtu int, portRate sim.Rate) (Plan, error) {
	if mtu < packet.ControlSize || mtu > 9216 {
		return Plan{}, fmt.Errorf("tofino: MTU %d outside [%d, 9216]", mtu, packet.ControlSize)
	}
	if portRate <= 0 {
		return Plan{}, fmt.Errorf("tofino: non-positive port rate")
	}
	p := Plan{
		MTU:            mtu,
		PortRate:       portRate,
		FPGAPorts:      1,
		EnqueuePorts:   1,
		LoopbackPorts:  1,
		SchePPS:        portRate.PacketsPerSecond(packet.WireSize(packet.ControlSize)),
		DataPPSPerPort: portRate.PacketsPerSecond(packet.WireSize(mtu)),
	}
	amplification := int(p.SchePPS / p.DataPPSPerPort)
	overhead := p.FPGAPorts + p.EnqueuePorts + p.LoopbackPorts
	available := PortsPerPipeline - overhead
	p.DataPorts = amplification
	if p.DataPorts > available {
		p.DataPorts = available
	}
	p.Reserved = available - p.DataPorts
	p.Throughput = sim.Rate(int64(portRate) * int64(p.DataPorts))
	return p, nil
}

// AmplificationFactor returns how many line-rate DATA ports one SCHE port
// can feed at this MTU, ignoring the pipeline's port budget.
func (p Plan) AmplificationFactor() int {
	return int(p.SchePPS / p.DataPPSPerPort)
}

// IdealThroughput returns the amplification-limited throughput, ignoring
// the pipeline's port budget (§3.3's "theoretically achievable" figure).
func (p Plan) IdealThroughput() sim.Rate {
	return sim.Rate(int64(p.PortRate) * int64(p.AmplificationFactor()))
}

// TotalPorts returns the ports the plan consumes.
func (p Plan) TotalPorts() int {
	return p.DataPorts + p.FPGAPorts + p.EnqueuePorts + p.LoopbackPorts
}

// Validate checks the plan fits one pipeline.
func (p Plan) Validate() error {
	if p.TotalPorts() > PortsPerPipeline {
		return fmt.Errorf("tofino: plan needs %d ports, pipeline has %d",
			p.TotalPorts(), PortsPerPipeline)
	}
	if p.DataPorts < 1 {
		return fmt.Errorf("tofino: plan has no data ports")
	}
	return nil
}
