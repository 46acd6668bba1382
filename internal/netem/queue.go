package netem

import (
	"math/bits"

	"marlin/internal/aqm"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

// ECNConfig is DCTCP-style step marking at a queue: every ECN-capable
// packet that arrives while the backlog is at least K bytes is marked CE.
// A probabilistic marker is an AQM discipline (aqm's RED), not a config.
type ECNConfig struct {
	// Enable turns marking on.
	Enable bool
	// K is the backlog (bytes) where marking begins.
	K int
}

// StepMarking returns a step-marking config with threshold k expressed in
// packets of the given size.
func StepMarking(kPackets, packetSize int) ECNConfig {
	return ECNConfig{Enable: true, K: kPackets * packetSize}
}

// QueueStats are the counters a drop-tail queue maintains; the control
// plane reads them as "hardware registers".
type QueueStats struct {
	EnqPackets  uint64
	EnqBytes    uint64
	DeqPackets  uint64
	DeqBytes    uint64
	Drops       uint64
	DropBytes   uint64
	ECNMarks    uint64
	MaxBacklogB int
}

// AQMStats are the extra counters an AQM-managed queue maintains on top of
// QueueStats. AQM marks and drops are also folded into QueueStats.ECNMarks
// and QueueStats.Drops so existing aggregations keep working; these break
// out the discipline's share and the per-band sojourn distribution.
type AQMStats struct {
	// Discipline is the managing discipline's name.
	Discipline string
	// Marks counts CE marks applied on the discipline's verdict.
	Marks uint64
	// Drops counts packets the discipline discarded, including Mark
	// verdicts that fell back to drops because the packet was Not-ECT or
	// marking was suppressed (the ecnoff fault).
	Drops uint64
	// BandDeqPackets counts delivered packets per band (band 1 is only
	// used by dual-queue disciplines).
	BandDeqPackets [aqm.MaxBands]uint64
	// SojournP99Us is the per-band 99th-percentile queueing delay of
	// delivered packets, in microseconds.
	SojournP99Us [aqm.MaxBands]float64
}

// pktFIFO is one queue band: a pointer FIFO that rewinds to the front of
// its array whenever it empties, so the array grows with the band's peak
// depth rather than with the packets that pass through it, and compacts in
// amortized O(1) when a backlog never drains. Its first array is the
// band's own first slots, so a band that never holds more than that
// allocates nothing.
type pktFIFO struct {
	head  int
	buf   []*packet.Packet
	bytes int
	// first backs buf from the first push until the band outgrows it.
	// buf then points into the band itself, so a queue is not copied once
	// it has held a packet: it lives in place, in its link or behind
	// NewQueue's pointer.
	first [firstSlots]*packet.Packet
}

// firstSlots is how many packets a band holds in its own slots. Most bands
// of a test never hold more: in a leafspine:4x2 short job 33 of the 36
// bands that queue a packet peak at 8 or fewer, and growing every band from
// nothing cost that job 60 allocations.
const firstSlots = 8

func (f *pktFIFO) push(p *packet.Packet) {
	if f.buf == nil {
		f.buf = f.first[:0]
	}
	f.buf = append(f.buf, p)
	f.bytes += p.Size
}

func (f *pktFIFO) pop() *packet.Packet {
	if f.head >= len(f.buf) {
		return nil
	}
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head++
	// Rewind when empty; otherwise compact once the dead prefix
	// dominates, keeping amortized O(1).
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	} else if f.head > 64 && f.head*2 >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.bytes -= p.Size
	return p
}

func (f *pktFIFO) peek() *packet.Packet {
	if f.head >= len(f.buf) {
		return nil
	}
	return f.buf[f.head]
}

func (f *pktFIFO) length() int { return len(f.buf) - f.head }

// sojournHist is a fixed-size quarter-octave log histogram of sojourn
// times: no allocation on the record path, deterministic percentile
// readout. Buckets hold raw sim.Duration (picosecond) samples.
type sojournHist struct {
	counts [256]uint64
	total  uint64
}

// bucketOf maps a non-negative value to its quarter-octave bucket: the
// exponent of the leading bit plus the next two mantissa bits, so adjacent
// buckets are 25% apart.
func bucketOf(x uint64) int {
	if x < 4 {
		return int(x)
	}
	exp := bits.Len64(x) - 1
	frac := (x >> (exp - 2)) & 3
	return exp<<2 | int(frac)
}

// lowerBound inverts bucketOf: the smallest value in the bucket.
func lowerBound(idx int) uint64 {
	if idx < 4 {
		return uint64(idx)
	}
	exp := idx >> 2
	frac := uint64(idx & 3)
	return (4 | frac) << (exp - 2)
}

func (h *sojournHist) add(d sim.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(uint64(d))]++
	h.total++
}

// quantile returns the lower bound of the bucket holding the q-quantile
// sample, or zero when empty.
func (h *sojournHist) quantile(q float64) sim.Duration {
	if h.total == 0 {
		return 0
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var seen uint64
	for i, n := range h.counts {
		seen += n
		if seen > rank {
			return sim.Duration(lowerBound(i))
		}
	}
	return 0
}

// Queue is a byte-bounded FIFO with optional step ECN marking and an
// optional AQM discipline. It is the buffering stage in front of every
// emulated link. Without a discipline it is a plain drop-tail queue with
// step ECN; with one, admission and delivery run through the discipline's
// OnEnqueue/OnDequeue verdicts and dual-queue disciplines split the
// backlog into per-band FIFOs.
type Queue struct {
	// capacity bounds the backlog; zero means a 256 KiB default.
	capacity int
	ecn      ECNConfig
	// suppressMark disables ECN marking without touching the configured
	// thresholds — an "ecnoff" fault that is exactly reversible. It
	// applies to AQM verdicts too: a Mark from the discipline degrades to
	// a drop, like a real AQM on a switch with ECN disabled.
	suppressMark bool

	// disc, when non-nil, replaces step ECN with an AQM discipline;
	// clock supplies sim time for sojourn stamping and controller steps.
	disc   aqm.AQM
	clock  func() sim.Time
	nbands int

	bands [aqm.MaxBands]pktFIFO
	bytes int
	stats QueueStats

	aqmMarks, aqmDrops uint64
	bandDeq            [aqm.MaxBands]uint64
	// soj[b] is band b's sojourn histogram, 2 KiB taken at the band's first
	// delivery under a discipline: a drop-tail fabric of a hundred links,
	// or a dual-queue one whose traffic all sits in one band, would carry
	// the rest for nothing.
	soj [aqm.MaxBands]*sojournHist

	// onChange is invoked with the new backlog after every enqueue and
	// dequeue; the PFC controller uses it to watch watermarks.
	onChange func(bytes int)
}

// OnBacklogChange installs a backlog observer (at most one).
func (q *Queue) OnBacklogChange(fn func(bytes int)) { q.onChange = fn }

// DefaultQueueCapacity is the per-port buffer used when none is configured;
// sized like a shallow data-center switch port allocation.
const DefaultQueueCapacity = 256 << 10

// NewQueue creates a queue with the given byte capacity (0 selects
// DefaultQueueCapacity) and step-marking config.
func NewQueue(capacityBytes int, ecn ECNConfig) *Queue {
	q := newQueue(capacityBytes, ecn)
	return &q
}

// newQueue is NewQueue's value, for owners that hold their queue in place.
func newQueue(capacityBytes int, ecn ECNConfig) Queue {
	if capacityBytes <= 0 {
		capacityBytes = DefaultQueueCapacity
	}
	return Queue{capacity: capacityBytes, ecn: ecn, nbands: 1}
}

// SetAQM attaches an AQM discipline and the sim clock that drives it.
// The discipline supersedes the queue's step-ECN config; passing nil
// restores plain drop-tail behaviour.
func (q *Queue) SetAQM(disc aqm.AQM, clock func() sim.Time) {
	q.disc, q.clock = disc, clock
	q.nbands = 1
	if disc != nil {
		q.nbands = disc.Bands()
	}
}

// view snapshots the backlog for the discipline.
func (q *Queue) view() aqm.QueueView {
	v := aqm.QueueView{Bytes: q.bytes, Packets: q.Len(), Capacity: q.capacity}
	for b := 0; b < q.nbands; b++ {
		v.BandBytes[b] = q.bands[b].bytes
		v.BandPackets[b] = q.bands[b].length()
		if p := q.bands[b].peek(); p != nil {
			v.HeadEnqAt[b] = p.EnqAt
		}
	}
	return v
}

// Enqueue appends p, applying drop-tail admission and either step ECN or
// the attached discipline's verdict. It reports whether the packet was
// admitted; the caller keeps ownership (and must Release) when it was not.
func (q *Queue) Enqueue(p *packet.Packet) bool {
	if q.bytes+p.Size > q.capacity {
		q.dropStats(p)
		return false
	}
	if q.disc == nil {
		if q.ecn.Enable && !q.suppressMark && p.Flags.Has(packet.FlagECNCapable) && q.bytes >= q.ecn.K {
			p.Flags |= packet.FlagCE
			q.stats.ECNMarks++
		}
		q.admit(p, 0)
		return true
	}
	band := q.disc.Classify(p)
	now := q.clock()
	switch q.disc.OnEnqueue(p, band, q.view(), now) {
	case aqm.Drop:
		q.dropStats(p)
		q.aqmDrops++
		return false
	case aqm.Mark:
		if !q.applyMark(p) {
			q.dropStats(p)
			q.aqmDrops++
			return false
		}
	}
	p.EnqAt = now
	q.admit(p, band)
	return true
}

func (q *Queue) admit(p *packet.Packet, band int) {
	q.bands[band].push(p)
	q.bytes += p.Size
	q.stats.EnqPackets++
	q.stats.EnqBytes += uint64(p.Size)
	if q.bytes > q.stats.MaxBacklogB {
		q.stats.MaxBacklogB = q.bytes
	}
	if q.onChange != nil {
		q.onChange(q.bytes)
	}
}

func (q *Queue) dropStats(p *packet.Packet) {
	q.stats.Drops++
	q.stats.DropBytes += uint64(p.Size)
}

// applyMark resolves a discipline Mark verdict: CE when the packet is
// ECN-capable and marking is not suppressed, otherwise the caller must
// drop. This is the ecnoff degradation path.
func (q *Queue) applyMark(p *packet.Packet) bool {
	if q.suppressMark || !p.Flags.Has(packet.FlagECNCapable) {
		return false
	}
	p.Flags |= packet.FlagCE
	q.stats.ECNMarks++
	q.aqmMarks++
	return true
}

// SuppressMarking toggles a temporary override that disables ECN marking
// while leaving the configured thresholds untouched; clearing it restores
// the original behavior exactly. Used by the ecnoff fault.
func (q *Queue) SuppressMarking(suppress bool) { q.suppressMark = suppress }

// MarkingSuppressed reports whether the ecnoff override is active.
func (q *Queue) MarkingSuppressed() bool { return q.suppressMark }

// Dequeue removes and returns the oldest packet (per the discipline's band
// scheduler, if any), or nil if empty. Discipline head drops (CoDel's
// Drop verdict, or a Mark that cannot be honoured) release the victim and
// continue with the next packet, so a non-nil return is always deliverable.
func (q *Queue) Dequeue() *packet.Packet {
	if q.disc == nil {
		p := q.bands[0].pop()
		if p == nil {
			return nil
		}
		q.bytes -= p.Size
		q.deliverStats(p)
		return p
	}
	now := q.clock()
	for {
		band := 0
		if q.nbands > 1 {
			band = q.disc.PickBand(q.view(), now)
			if q.bands[band].length() == 0 {
				band = 1 - band
			}
		}
		p := q.bands[band].pop()
		if p == nil {
			return nil
		}
		q.bytes -= p.Size
		sojourn := now.Sub(p.EnqAt)
		verdict := q.disc.OnDequeue(p, band, sojourn, q.view(), now)
		if verdict == aqm.Mark && !q.applyMark(p) {
			verdict = aqm.Drop
		}
		if verdict == aqm.Drop {
			q.dropStats(p)
			q.aqmDrops++
			if q.onChange != nil {
				q.onChange(q.bytes)
			}
			p.Release()
			continue
		}
		if q.soj[band] == nil {
			q.soj[band] = new(sojournHist)
		}
		q.soj[band].add(sojourn)
		q.bandDeq[band]++
		q.deliverStats(p)
		return p
	}
}

func (q *Queue) deliverStats(p *packet.Packet) {
	q.stats.DeqPackets++
	q.stats.DeqBytes += uint64(p.Size)
	if q.onChange != nil {
		q.onChange(q.bytes)
	}
}

// Len returns the number of queued packets.
func (q *Queue) Len() int { return q.bands[0].length() + q.bands[1].length() }

// Bytes returns the queued backlog in bytes.
func (q *Queue) Bytes() int { return q.bytes }

// Capacity returns the configured byte capacity.
func (q *Queue) Capacity() int { return q.capacity }

// Stats returns a snapshot of the queue counters.
func (q *Queue) Stats() QueueStats { return q.stats }

// AQMStats returns the discipline counters, or nil when the queue has no
// attached discipline.
func (q *Queue) AQMStats() *AQMStats {
	if q.disc == nil {
		return nil
	}
	s := &AQMStats{
		Discipline:     q.disc.Name(),
		Marks:          q.aqmMarks,
		Drops:          q.aqmDrops,
		BandDeqPackets: q.bandDeq,
	}
	for b, h := range q.soj[:q.nbands] {
		if h != nil {
			s.SojournP99Us[b] = h.quantile(0.99).Microseconds()
		}
	}
	return s
}
