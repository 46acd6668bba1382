// Package poolmisuse_clean holds the legitimate ownership patterns the
// poolflow check must not flag.
package poolmisuse_clean

import "marlin/internal/packet"

// ReleaseLast is the consumer pattern: read everything, then Release.
func ReleaseLast(p *packet.Packet) uint32 {
	psn := p.PSN
	p.Release()
	return psn
}

// BranchRelease drops on one path only; the other path still owns p.
func BranchRelease(p *packet.Packet, drop bool) int {
	if drop {
		p.Release()
		return 0
	}
	return p.Size
}

// Reassigned re-binds the variable to a fresh pool packet after Release.
func Reassigned(p *packet.Packet) *packet.Packet {
	p.Release()
	p = packet.Get()
	return p
}

// CloneThenRelease retains a copy before returning the original.
func CloneThenRelease(p *packet.Packet, sink func(*packet.Packet)) {
	q := p.Clone()
	p.Release()
	sink(q)
}

// SwitchCases releases per case; each case owns the packet exactly once.
func SwitchCases(p *packet.Packet, sink func(*packet.Packet)) {
	switch p.Type {
	case packet.DATA:
		sink(p)
	default:
		p.Release()
	}
}

// ReleaseLater is the timer pattern: the closure owns the captured packet
// and releases it last, and the enclosing function no longer touches it.
func ReleaseLater(p *packet.Packet, schedule func(func()), sink func(uint32)) {
	schedule(func() {
		sink(p.PSN)
		p.Release()
	})
}

// spare is a package-level packet slot, refilled after each Release.
var spare *packet.Packet

// RefillSpare returns the held packet and rebinds the slot.
func RefillSpare() {
	spare.Release()
	spare = packet.Get()
	_ = spare.PSN
}
