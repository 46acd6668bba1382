// Package poolmisuse_bad holds block-local pool misuse for the poolflow
// check: every marked line touches a packet after Release returned it.
package poolmisuse_bad

import "marlin/internal/packet"

// UseAfterRelease reads a field of a released packet.
func UseAfterRelease(p *packet.Packet) uint32 {
	p.Release()
	return p.PSN
}

// DoubleRelease returns the same packet to the pool twice.
func DoubleRelease(p *packet.Packet) {
	p.Release()
	p.Release()
}

// ForwardAfterRelease hands a released packet to another owner.
func ForwardAfterRelease(p *packet.Packet, sink func(*packet.Packet)) {
	p.Release()
	sink(p)
}

// BranchUse releases and then keeps using within the same branch.
func BranchUse(p *packet.Packet, drop bool) int {
	if drop {
		p.Release()
		return p.Size
	}
	return 0
}

// ReleaseInClosure releases a packet the closure captured, then reads it.
func ReleaseInClosure(p *packet.Packet, schedule func(func())) {
	schedule(func() {
		p.Release()
		_ = p.PSN
	})
}

// held is a package-level packet.
var held *packet.Packet

// ReleaseHeld releases a package-level packet, then hands it on.
func ReleaseHeld(sink func(*packet.Packet)) {
	held.Release()
	sink(held)
}
