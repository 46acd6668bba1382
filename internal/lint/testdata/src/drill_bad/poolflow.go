package drill_bad

import "marlin/internal/packet"

type queue struct{ drops, dropBytes uint64 }

func (q *queue) dropStats(p *packet.Packet) {
	q.drops++
	q.dropBytes += uint64(p.Size)
}

// AQMDrop is P1: the AQM drop path counts the dropped bytes after Release
// has zeroed the packet, so DropBytes reads low.
func (q *queue) AQMDrop(p *packet.Packet) {
	p.Release()
	q.dropStats(p)
}
