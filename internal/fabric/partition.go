package fabric

import "fmt"

// PartitionPlan assigns every switch and every host of a topology to a
// partition (an island that can run on its own engine). The plan is a pure
// function of the Spec and host count — it never depends on how many
// workers later execute it — so the same topology always partitions the
// same way and cross-shard delivery order stays reproducible.
//
// Hosts are always co-located with their leaf-tier switch: a host's uplink
// and downlink never cross a partition boundary, only inter-switch trunks
// do. Each shape partitions along its natural fault domain:
//
//	dumbbell      left | right (2 partitions; the trunk is the only cut)
//	parkinglot:N  one partition per hop switch
//	leafspine:LxS one partition per leaf; spine s joins partition s mod L
//	fattree:K     one partition per pod; core (j,m) joins partition
//	              (j*K/2+m) mod K
type PartitionPlan struct {
	// Parts is the number of partitions.
	Parts int
	// SwitchPart maps switch build index -> partition.
	SwitchPart []int
	// HostPart maps host -> partition (always the partition of the
	// leaf-tier switch the host attaches to).
	HostPart []int
}

// PartitionSpec computes the canonical partition plan for a topology. The
// zero Spec (canonical single switch) has no fabric to cut and is an error.
func PartitionSpec(spec Spec, hosts int) (PartitionPlan, error) {
	if err := spec.Validate(); err != nil {
		return PartitionPlan{}, err
	}
	if spec.IsZero() {
		return PartitionPlan{}, fmt.Errorf("fabric: cannot partition the canonical single switch (set a topology)")
	}
	if hosts < 1 {
		return PartitionPlan{}, fmt.Errorf("fabric: need at least one host to partition, got %d", hosts)
	}
	p := PartitionPlan{HostPart: make([]int, hosts)}
	switch spec.Kind {
	case KindDumbbell:
		p.Parts = 2
		p.SwitchPart = []int{0, 1}
		for h := range p.HostPart {
			p.HostPart[h] = h % 2
		}
	case KindParkingLot:
		p.Parts = spec.N
		p.SwitchPart = make([]int, spec.N)
		for i := range p.SwitchPart {
			p.SwitchPart[i] = i
		}
		for h := range p.HostPart {
			p.HostPart[h] = h % spec.N
		}
	case KindLeafSpine:
		L, S := spec.Leaves, spec.Spines
		p.Parts = L
		p.SwitchPart = make([]int, L+S)
		for l := 0; l < L; l++ {
			p.SwitchPart[l] = l
		}
		for s := 0; s < S; s++ {
			p.SwitchPart[L+s] = s % L
		}
		for h := range p.HostPart {
			p.HostPart[h] = h % L
		}
	case KindFatTree:
		k := spec.K
		half := k / 2
		numEdge := k * half
		p.Parts = k
		p.SwitchPart = make([]int, numEdge+k*half+half*half)
		for e := 0; e < numEdge; e++ {
			p.SwitchPart[e] = e / half
		}
		for a := 0; a < k*half; a++ {
			p.SwitchPart[numEdge+a] = a / half
		}
		for c := 0; c < half*half; c++ {
			p.SwitchPart[numEdge+k*half+c] = c % k
		}
		for h := range p.HostPart {
			p.HostPart[h] = (h % numEdge) / half
		}
	default:
		return PartitionPlan{}, fmt.Errorf("fabric: no partition rule for topology %q", spec.Kind)
	}
	return p, nil
}
