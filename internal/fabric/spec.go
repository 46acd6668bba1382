package fabric

import (
	"fmt"
	"strconv"
	"strings"
)

// Spec names a tested-network topology. The zero value is the §7.1 shape:
// one output-queued switch between the tester's ports. A non-zero Spec
// selects one of the named multi-switch shapes; the numeric fields
// parameterize the shape that uses them.
type Spec struct {
	// Kind is one of "", "dumbbell", "leafspine", "fattree", "parkinglot".
	Kind string
	// Leaves and Spines size a leafspine fabric.
	Leaves int
	Spines int
	// K is the fat-tree arity (even, >= 2): K pods of K/2 edge and K/2
	// aggregation switches over (K/2)^2 cores.
	K int
	// N is the parking-lot chain length in switches.
	N int
}

// Topology kind names.
const (
	KindDumbbell   = "dumbbell"
	KindLeafSpine  = "leafspine"
	KindFatTree    = "fattree"
	KindParkingLot = "parkinglot"
)

// IsZero reports whether the spec is the single-switch shape.
func (s Spec) IsZero() bool { return s.Kind == "" }

// maxSwitchPorts bounds a shape's inter-switch port count: K³ for a
// fat-tree, 2·L·S for a leaf-spine, 2·(N−1) for a parking lot. A built port
// holds 600–800 B of live heap once deployed (fattree:32's 32,780 ports
// hold 19.6 MiB, fattree:40's 64,012 hold 40.6 MiB), so the bound keeps
// every accepted shape near 40 MiB and refuses strings like
// leafspine:10000x10000 before anything is allocated. It admits fattree:32
// and leafspine:64x64, not fattree:64.
const maxSwitchPorts = 65536

// Validate rejects malformed specs and shapes too large to build. The size
// checks divide instead of multiplying, so no parameter overflows them.
func (s Spec) Validate() error {
	switch s.Kind {
	case "", KindDumbbell:
		return nil
	case KindLeafSpine:
		if s.Leaves < 1 || s.Spines < 1 {
			return fmt.Errorf("fabric: leafspine needs >= 1 leaf and >= 1 spine, got %dx%d", s.Leaves, s.Spines)
		}
		if s.Leaves > maxSwitchPorts/2/s.Spines {
			return s.tooLarge()
		}
		return nil
	case KindFatTree:
		if s.K < 2 || s.K%2 != 0 {
			return fmt.Errorf("fabric: fat-tree arity must be even and >= 2, got %d", s.K)
		}
		if s.K > maxSwitchPorts/s.K/s.K {
			return s.tooLarge()
		}
		return nil
	case KindParkingLot:
		if s.N < 2 {
			return fmt.Errorf("fabric: parking lot needs >= 2 switches, got %d", s.N)
		}
		if s.N-1 > maxSwitchPorts/2 {
			return s.tooLarge()
		}
		return nil
	default:
		return fmt.Errorf("fabric: unknown topology %q (have dumbbell, leafspine:LxS, fattree:K, parkinglot:N)", s.Kind)
	}
}

// tooLarge is Validate's error for a shape past maxSwitchPorts.
func (s Spec) tooLarge() error {
	return fmt.Errorf("fabric: %s needs more than %d switch ports", s, maxSwitchPorts)
}

// String renders the canonical text form accepted by ParseSpec.
func (s Spec) String() string {
	switch s.Kind {
	case KindLeafSpine:
		return fmt.Sprintf("leafspine:%dx%d", s.Leaves, s.Spines)
	case KindFatTree:
		return fmt.Sprintf("fattree:%d", s.K)
	case KindParkingLot:
		return fmt.Sprintf("parkinglot:%d", s.N)
	default:
		return s.Kind
	}
}

// Diameter is the maximum number of links on any host-to-host forward
// path (host uplink + inter-switch hops + host downlink); the reverse ACK
// path is provisioned to match it, and INT budgeting uses it.
func (s Spec) Diameter() int {
	switch s.Kind {
	case KindDumbbell:
		return 3
	case KindLeafSpine:
		return 4
	case KindFatTree:
		return 6
	case KindParkingLot:
		return s.N + 1
	default:
		return 2 // the single switch: host uplink + downlink
	}
}

// Switches is the number of switches the spec builds.
func (s Spec) Switches() int {
	switch s.Kind {
	case KindDumbbell:
		return 2
	case KindLeafSpine:
		return s.Leaves + s.Spines
	case KindFatTree:
		half := s.K / 2
		return s.K*(half+half) + half*half
	case KindParkingLot:
		return s.N
	default:
		return 1
	}
}

// leafTier is how many switches hosts attach to: the first ones in build
// order, host h on switch h mod leafTier.
func (s Spec) leafTier() int {
	switch s.Kind {
	case KindDumbbell:
		return 2
	case KindLeafSpine:
		return s.Leaves
	case KindFatTree:
		return s.K * (s.K / 2)
	case KindParkingLot:
		return s.N
	default:
		return 1
	}
}

// localHosts is how many of hosts attach to switch sw (build order).
func (s Spec) localHosts(sw, hosts int) int {
	n := s.leafTier()
	if sw >= n {
		return 0
	}
	local := hosts / n
	if sw < hosts%n {
		local++
	}
	return local
}

// SwitchPorts is the number of output ports switch sw (build order, as in
// Switches) has when hosts hosts attach: a downlink per local host, then
// its trunks. Build sizes every switch, and the fabric's link slabs, from
// it before wiring anything.
func (s Spec) SwitchPorts(sw, hosts int) int {
	ports := s.localHosts(sw, hosts)
	switch s.Kind {
	case KindDumbbell:
		return ports + 1
	case KindLeafSpine:
		if sw < s.Leaves {
			return ports + s.Spines
		}
		return s.Leaves
	case KindFatTree:
		if sw < s.leafTier() {
			return ports + s.K/2
		}
		return s.K // an agg's K/2 edges and K/2 cores, a core's K pods
	case KindParkingLot:
		if sw > 0 {
			ports++
		}
		if sw < s.N-1 {
			ports++
		}
		return ports
	default:
		return ports
	}
}

// ParseSpec compiles the operator-facing topology string:
//
//	""                        the single switch (§7.1)
//	dumbbell                  two switches over one trunk
//	leafspine[:LxS]           L leaves, S spines (default 2x2)
//	fattree[:K]               K-ary fat-tree (default 4)
//	parkinglot[:N]            N-switch chain (default 3)
//
// "leaf-spine", "fat-tree", and "parking-lot" spellings are accepted; the
// LxS argument also parses with a comma ("4,2").
func ParseSpec(text string) (Spec, error) {
	text = strings.TrimSpace(text)
	if text == "" {
		return Spec{}, nil
	}
	name, arg := text, ""
	if i := strings.IndexByte(text, ':'); i >= 0 {
		name, arg = text[:i], text[i+1:]
	}
	var s Spec
	switch strings.ToLower(name) {
	case KindDumbbell:
		if arg != "" {
			return Spec{}, fmt.Errorf("fabric: dumbbell takes no parameter, got %q", arg)
		}
		s = Spec{Kind: KindDumbbell}
	case KindLeafSpine, "leaf-spine":
		s = Spec{Kind: KindLeafSpine, Leaves: 2, Spines: 2}
		if arg != "" {
			parts := strings.SplitN(strings.ReplaceAll(arg, ",", "x"), "x", 2)
			if len(parts) != 2 {
				return Spec{}, fmt.Errorf("fabric: leafspine wants LxS, got %q", arg)
			}
			l, err1 := strconv.Atoi(parts[0])
			sp, err2 := strconv.Atoi(parts[1])
			if err1 != nil || err2 != nil {
				return Spec{}, fmt.Errorf("fabric: leafspine wants LxS, got %q", arg)
			}
			s.Leaves, s.Spines = l, sp
		}
	case KindFatTree, "fat-tree":
		s = Spec{Kind: KindFatTree, K: 4}
		if arg != "" {
			k, err := strconv.Atoi(arg)
			if err != nil {
				return Spec{}, fmt.Errorf("fabric: fattree wants an integer arity, got %q", arg)
			}
			s.K = k
		}
	case KindParkingLot, "parking-lot":
		s = Spec{Kind: KindParkingLot, N: 3}
		if arg != "" {
			n, err := strconv.Atoi(arg)
			if err != nil {
				return Spec{}, fmt.Errorf("fabric: parkinglot wants an integer length, got %q", arg)
			}
			s.N = n
		}
	default:
		return Spec{}, fmt.Errorf("fabric: unknown topology %q (have dumbbell, leafspine:LxS, fattree:K, parkinglot:N)", name)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}
