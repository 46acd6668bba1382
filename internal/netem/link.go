package netem

import (
	"marlin/internal/aqm"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

// HookAction is the verdict of a link hook on a packet.
type HookAction int

// Hook verdicts.
const (
	// Pass lets the packet proceed unchanged.
	Pass HookAction = iota
	// Drop discards the packet (counted as an injected loss, not a
	// queue drop).
	Drop
	// MarkCE forces the CE bit on and passes the packet.
	MarkCE
)

// Hook inspects each packet entering the link and may drop or mark it.
// Hooks implement the paper's §7.1 methodology of "deliberately introduced
// packet loss events and modified ECN markings at specific points".
type Hook func(p *packet.Packet) HookAction

// Remote is the far end of a link whose destination node lives on another
// partition's engine (a cross-shard cut). Carry is called on the source
// partition's goroutine, when the frame starts serializing, with the packet
// and its absolute arrival timestamp; the implementation owns the packet from that point and
// must not touch destination-partition state until the next barrier. The
// conservative-synchronization invariant that makes this sound: a packet
// started during a round arrives no earlier than its start time plus the
// link's propagation delay, which is at least the round horizon by the
// lookahead rule, so the destination engine's clock has not reached it yet.
type Remote interface {
	Carry(p *packet.Packet, deliverAt sim.Time)
}

// LinkStats are the per-link counters.
type LinkStats struct {
	TxPackets     uint64
	TxBytes       uint64
	InjectedDrops uint64
	InjectedMarks uint64
	// DownDrops counts packets that arrived while the link was
	// administratively down (carrier loss) and were discarded.
	DownDrops uint64
}

// Link models a unidirectional cable fronted by a bounded FIFO queue: the
// standard queue-then-serialize-then-propagate pipeline. Packets that pass
// admission are serialized at the link rate in order and delivered to the
// destination Node one propagation delay after their last bit leaves.
//
// The link schedules an event only where a packet waits for simulated time:
// one delivery per frame, and one timer for the end of the frame in flight
// while something is queued behind it. A packet that finds the serializer
// free starts in the call that brought it, so every frame starts at
// max(arrival, serializer free, resume/up).
type Link struct {
	eng       *sim.Engine
	rate      sim.Rate
	delay     sim.Duration
	queue     Queue
	dst       Node
	remote    Remote
	hooks     []Hook
	enableINT bool
	jitter    sim.Duration
	jrng      sim.Rand

	// freeAt is when the serializer finishes the frame in flight; armed
	// says a timer is pending there for the packets queued behind it.
	freeAt sim.Time
	armed  bool
	paused bool
	down   bool
	stats  LinkStats
}

// delivery and serializer are the link's two engine handlers: the same
// *Link under another type, so scheduling either allocates nothing and the
// link owns no closure. A delivery fires with the packet as its argument,
// the serializer timer with nil.
type (
	delivery   Link
	serializer Link
)

// Fire hands the packet to the far end.
func (d *delivery) Fire(arg any) { d.dst.Receive(arg.(*packet.Packet)) }

// Fire ends the frame in flight and starts the next.
func (s *serializer) Fire(any) {
	l := (*Link)(s)
	l.armed = false
	l.start()
}

// LinkConfig configures a Link.
type LinkConfig struct {
	// Rate is the line rate; required.
	Rate sim.Rate
	// Delay is the one-way propagation delay.
	Delay sim.Duration
	// QueueBytes bounds the ingress queue (0 = DefaultQueueCapacity).
	QueueBytes int
	// ECN configures step marking at the ingress queue.
	ECN ECNConfig
	// EnableINT stamps each departing DATA packet with this hop's
	// telemetry (queue depth, cumulative tx bytes, rate, timestamp) for
	// INT-based congestion control.
	EnableINT bool
	// Jitter adds a uniform random [0, Jitter] extra propagation delay
	// per packet; jitter exceeding the serialization gap reorders
	// packets, exercising receiver out-of-order handling.
	Jitter sim.Duration
	// RNG seeds jitter and the AQM discipline: the link starts its own
	// stream from RNG's state. nil uses fixed-seed streams.
	RNG *sim.Rand
	// AQM attaches an active-queue-management discipline to the ingress
	// queue, superseding the step-ECN config. The discipline's RNG is
	// split off RNG at build time so its marking stream is independent of
	// jitter draws.
	AQM aqm.Spec
}

// NewLink builds a link that delivers to dst.
func NewLink(eng *sim.Engine, cfg LinkConfig, dst Node) *Link {
	l := new(Link)
	l.Init(eng, cfg, dst)
	return l
}

// Init builds a link that delivers to dst in place, in a zero Link the
// caller owns, so a network can lay its links out in one slice. It copies
// cfg.RNG's state rather than keeping the pointer: the link's jitter and
// marking draws continue that stream on their own. With no RNG the streams
// have fixed seeds, and nothing is allocated for them.
func (l *Link) Init(eng *sim.Engine, cfg LinkConfig, dst Node) {
	if cfg.Rate <= 0 {
		panic("netem: link with non-positive rate")
	}
	*l = Link{
		eng:       eng,
		rate:      cfg.Rate,
		delay:     cfg.Delay,
		queue:     newQueue(cfg.QueueBytes, cfg.ECN),
		dst:       dst,
		enableINT: cfg.EnableINT,
		jitter:    cfg.Jitter,
		jrng:      sim.MakeRand(0x1a77e6),
	}
	if cfg.RNG != nil {
		l.jrng = *cfg.RNG
	}
	if cfg.AQM.Enabled() {
		src := &l.jrng
		if cfg.RNG == nil {
			fixed := sim.MakeRand(0xa97)
			src = &fixed
		}
		l.queue.SetAQM(cfg.AQM.Build(l.queue.Capacity(), src.Split()), eng.Now)
	}
}

// AddHook registers a packet hook. Hooks run in registration order; the
// first non-Pass verdict wins.
func (l *Link) AddHook(h Hook) { l.hooks = append(l.hooks, h) }

// SetRemote turns the link into a cross-shard egress: queueing,
// serialization, INT stamping, and the jitter draw all stay on the local
// engine exactly as in the in-partition path, but instead of scheduling a
// local delivery the drained packet is handed to r with its computed
// arrival time. A link built with a nil dst must have a Remote installed
// before its first Send.
func (l *Link) SetRemote(r Remote) { l.remote = r }

// Engine returns the engine the link's queue, hooks, and serialization run
// on; its clock is the one a hook observing the link should read.
func (l *Link) Engine() *sim.Engine { return l.eng }

// Rate returns the configured line rate.
func (l *Link) Rate() sim.Rate { return l.rate }

// Delay returns the configured propagation delay.
func (l *Link) Delay() sim.Duration { return l.delay }

// Queue exposes the ingress queue for configuration inspection and stats.
func (l *Link) Queue() *Queue { return &l.queue }

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Send submits a packet to the link. It applies hooks, then queue
// admission, and starts the frame at once if the serializer is free. While
// the link is down, arrivals are discarded (counted in DownDrops) — carrier
// loss destroys the frame on the wire, it does not buffer it.
func (l *Link) Send(p *packet.Packet) {
	if l.down {
		l.stats.DownDrops++
		p.Release()
		return
	}
	for _, h := range l.hooks {
		switch h(p) {
		case Drop:
			l.stats.InjectedDrops++
			p.Release()
			return
		case MarkCE:
			p.Flags |= packet.FlagCE
			l.stats.InjectedMarks++
		}
	}
	if !l.queue.Enqueue(p) {
		p.Release() // tail drop
		return
	}
	l.start()
}

// Receive implements Node so links can be chained behind switches.
func (l *Link) Receive(p *packet.Packet) { l.Send(p) }

// Pause stops transmission after the in-flight frame (a received PFC
// pause); queued packets wait rather than drop.
func (l *Link) Pause() { l.paused = true }

// Resume restarts a paused link.
func (l *Link) Resume() {
	if !l.paused {
		return
	}
	l.paused = false
	l.start()
}

// Paused reports whether the link is PFC-paused.
func (l *Link) Paused() bool { return l.paused }

// SetDown changes the link's administrative state. Taking the link down
// stops transmission after the in-flight frame; packets already queued
// are HELD, not flushed — they model frames sitting in the upstream port
// buffer, which survives a downstream carrier loss. New arrivals while
// down are dropped and counted in DownDrops (ownership: the link Releases
// them, per the pool rule that whoever consumes a packet frees it).
// Bringing the link back up resumes transmission if work is queued and the
// link is not also PFC-paused.
func (l *Link) SetDown(down bool) {
	if l.down == down {
		return
	}
	l.down = down
	if !down {
		l.start()
	}
}

// Down reports whether the link is administratively down.
func (l *Link) Down() bool { return l.down }

// SetRate changes the line rate in place (a brownout or recovery). The new
// rate applies from the next dequeued frame; the in-flight frame finishes
// at the old rate, as real PHYs do.
func (l *Link) SetRate(r sim.Rate) {
	if r <= 0 {
		panic("netem: SetRate to non-positive rate")
	}
	l.rate = r
}

// start puts the queue head on the wire if the link may transmit and the
// serializer is free. While a frame is in flight it instead arms the one
// timer that calls it again when the frame ends. Everything that can end a
// packet's wait calls it: an arrival, that timer, Resume and SetDown(false).
func (l *Link) start() {
	if l.paused || l.down || l.armed {
		return
	}
	now := l.eng.Now()
	if now < l.freeAt {
		if l.queue.Len() > 0 {
			l.arm()
		}
		return
	}
	p := l.queue.Dequeue()
	if p == nil {
		return
	}
	if l.enableINT && p.Type == packet.DATA {
		p.PushINT(packet.INTHop{
			QueueBytes: uint32(l.queue.Bytes()),
			TxBytes:    l.stats.TxBytes,
			Rate:       l.rate,
			TS:         now,
		})
	}
	ser := l.rate.Serialize(packet.WireSize(p.Size))
	l.stats.TxPackets++
	l.stats.TxBytes += uint64(p.Size)
	prop := l.delay
	if l.jitter > 0 {
		prop += sim.Duration(l.jrng.Float64() * float64(l.jitter))
	}
	// Last bit leaves at now+ser; arrival is the propagation later.
	l.freeAt = now.Add(ser)
	if l.remote != nil {
		l.remote.Carry(p, l.freeAt.Add(prop))
	} else {
		l.eng.ScheduleFireAt(l.freeAt.Add(prop), (*delivery)(l), p)
	}
	if l.queue.Len() > 0 {
		l.arm()
	}
}

// arm schedules start for the end of the frame in flight.
func (l *Link) arm() {
	l.armed = true
	l.eng.ScheduleFireAt(l.freeAt, (*serializer)(l), nil)
}
