// Package shard runs one simulation across multiple cores under classic
// conservative (YAWNS-style) synchronization. The topology is partitioned
// into islands, each with its own sim.Engine and clock; the runner repeats
// rounds bounded by a global horizon derived from the lookahead — the
// minimum inter-partition link propagation delay — so no partition can
// ever receive a packet "from the past". Between rounds, cross-partition
// packets collected in mailboxes are scheduled onto their destination
// engines in a fixed order, and control-plane events run serially while
// every partition is quiescent at the barrier.
//
// Determinism contract. Cross-shard delivery order is a pure function of
// (arrival sim time, source partition ID, capture order): each destination
// drains its mailboxes in ascending source ID, each stably sorted by time,
// and the destination engine's schedule-order tie-break
// preserves exactly that order among equal-time arrivals. Local events at a
// given timestamp always precede cross-shard arrivals at the same
// timestamp (arrivals land after the barrier). None of this depends on the
// worker count or on GOMAXPROCS — a round executes the same partition
// engines to the same horizon whatever the parallelism — so a run with 1
// worker is byte-identical to a run with N.
//
// The crew. A Run with more than one worker starts a crew of goroutines
// once and stops it before returning; the caller's goroutine is worker 0.
// The crew is no larger than GOMAXPROCS or the CPU count, since more
// polling workers than cores only oversubscribe. Worker w owns partitions
// w, w+W, … for the whole call, so an engine's working set stays on one
// core. A round has two phases: every worker runs its own partitions to
// the horizon, then — only if the round carried anything — drains the
// packets addressed to its own partitions. Phases are released by bumping
// one atomic generation and joined by counting one atomic "remaining"
// counter down to zero; both are polled, with a runtime.Gosched every 64
// polls so a crew larger than GOMAXPROCS still makes progress, and a waiter
// that has polled for milliseconds parks until woken, which only happens
// when other processes hold the CPUs. The release publishes the
// coordinator's writes to every worker and the join publishes every
// worker's writes back, so partition state needs no locks. The crew is
// exited through a WaitGroup, which is also the join the determinism lint
// recognises.
//
// Memory discipline. Mailboxes are box[dst][src]: during a round only
// src's owner appends to one, and after the barrier only dst's owner
// drains it, resetting its length without freeing. Every header a worker
// writes — mailboxes, a source's capture counter and deferred list, a
// destination's carried count — sits alone on its cache lines. The worker
// funcs are built once in New, so steady-state rounds and, once the
// runtime has cached the goroutines, whole Run calls perform no
// allocation. Packets are pooled per partition (SetPools): a carried
// packet joins its destination's pool on delivery, and the barrier evens
// out the pools' free lists, so no partition allocates packets that
// another holds free.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

// lineSpan is the stride every worker-written header is padded to. Two
// cache lines: a header's fields (at most one line) then never share a line
// with a neighbour's, whatever the alignment of the slice holding them.
const lineSpan = 128

// xfer is one captured cross-partition packet awaiting the barrier.
type xfer struct {
	at      sim.Time
	deliver sim.ArgFunc
	pkt     *packet.Packet
}

// mailbox holds one (destination, source) pair's captures for the round,
// in capture order.
type mailbox struct {
	xs []xfer
	_  [lineSpan - 24]byte
}

// source is one partition's outbound state, written only by its owner
// during a round: how many packets it has captured, over all its
// mailboxes, and the deferred callbacks it recorded.
type source struct {
	captured uint64
	defs     []deferred
	_        [lineSpan - 32]byte
}

// dest is one partition's inbound state: its mailboxes, one per source in
// ascending source order, and how many packets its owner has drained.
type dest struct {
	boxes   []mailbox
	carried uint64
	_       [lineSpan - 32]byte
}

// deferred is a callback captured on a partition during a round, replayed
// on the control engine at the barrier in (time, partition, recording)
// order. Flow-completion hooks use it so user callbacks and FCT recording
// run single-threaded in a reproducible order.
type deferred struct {
	at sim.Time
	fn func()
}

// portal is the receiving end of one cross-partition cut: it implements
// netem.Remote for a specific (source partition, destination engine,
// destination node) triple. The deliver ArgFunc is built once so the drain
// schedules without per-packet closures.
type portal struct {
	src     *source
	box     *mailbox
	deliver sim.ArgFunc
}

// Carry implements netem.Remote: record the packet in the mailbox from
// the source partition to the destination. Runs on the source partition's
// owner.
func (p *portal) Carry(pk *packet.Packet, at sim.Time) {
	p.box.xs = append(p.box.xs, xfer{at: at, deliver: p.deliver, pkt: pk})
	p.src.captured++
}

// Stats counts the runner's work, for telemetry and tests. All fields are
// pure functions of the simulation inputs (never of worker count).
type Stats struct {
	// Rounds is how many barrier-bounded rounds have run.
	Rounds uint64
	// Carried is how many packets crossed a partition boundary.
	Carried uint64
	// Deferred is how many barrier callbacks were replayed.
	Deferred uint64
}

// Crew phases, published with the generation that releases them.
const (
	phaseRun = iota
	phaseDrain
	phaseStop
)

// crew is the set of goroutines serving one Run call. The coordinator
// writes phase and horizon, then bumps gen; each worker polls gen, does its
// share and counts left down; the coordinator polls left back to zero. A
// waiter that has polled for spinPolls parks on cond instead, and whoever
// moves gen or empties left wakes the parked ones.
type crew struct {
	gen      atomic.Uint64
	phase    int
	horizon  sim.Time
	sleepers atomic.Int32 // waiters parked on cond
	_        [lineSpan - 28]byte
	left     atomic.Int32
	_        [lineSpan - 4]byte

	size  int      // workers in the current Run, the coordinator included
	base  uint64   // gen when the current Run's workers were started
	serve []func() // serve[w] is worker w's goroutine body (w >= 1)
	exit  sync.WaitGroup
	fault []any // fault[w] is a panic recovered on worker w
	mu    sync.Mutex
	cond  *sync.Cond // on mu
}

// spinPolls is how many polls a waiter makes before it parks: a few
// milliseconds, past the imbalance between workers that rounds of
// fattree_shards2 show (waits of up to 2^17 polls are routine there), so an
// uncontended crew does not park. With the CPUs shared, polling only keeps
// a worker that has work off its core, and parking hands the core back.
// Tests lower it to make every wait park.
var spinPolls = 1 << 18

// maxProcs bounds the crew size: more spinning workers than Ps, or than
// CPUs the process may run on, only oversubscribe — a worker with work then
// waits for a timeslice behind one that is polling. Tests replace it to
// exercise crews larger than that.
var maxProcs = func() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

// Runner drives a set of partition engines plus one control engine in
// conservative rounds.
type Runner struct {
	ctl     *sim.Engine
	parts   []*sim.Engine
	byEng   map[*sim.Engine]int
	look    sim.Duration
	workers int

	srcs    []source
	dsts    []dest
	drained uint64     // packets already drained, summed over sources
	merge   []deferred // reusable barrier merge buffer
	rounds  uint64
	nDefs   uint64
	crew    crew

	// pools are the partitions' packet pools (SetPools), nil when packets
	// keep the pools they were made in; reserve holds the free packets the
	// barrier took from pools above PoolHighWater and no pool lacked yet.
	pools   []*packet.Pool
	reserve *packet.Pool
}

// PoolHighWater is how many free packets (and telemetry records) a
// minting partition's pool keeps at a barrier: what a pool holds above it,
// and all a pool holds of what it never mints, goes to minting pools below
// it. It covers the net packets a minting partition takes in a round, so
// one that is refilled at every barrier does not allocate.
const PoolHighWater = 256

// New builds a runner over the given partition engines. lookahead must be
// strictly positive (conservative synchronization cannot make progress
// otherwise); workers is clamped to [1, len(parts)].
func New(ctl *sim.Engine, parts []*sim.Engine, lookahead sim.Duration, workers int) (*Runner, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("shard: no partitions")
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("shard: non-positive lookahead %v", lookahead)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(parts) {
		workers = len(parts)
	}
	n := len(parts)
	r := &Runner{
		ctl:     ctl,
		parts:   parts,
		byEng:   make(map[*sim.Engine]int, n),
		look:    lookahead,
		workers: workers,
		srcs:    make([]source, n),
		dsts:    make([]dest, n),
	}
	for i, e := range parts {
		if e == ctl {
			return nil, fmt.Errorf("shard: partition %d reuses the control engine", i)
		}
		if _, dup := r.byEng[e]; dup {
			return nil, fmt.Errorf("shard: partition %d reuses another partition's engine", i)
		}
		r.byEng[e] = i
	}
	boxes := make([]mailbox, n*n)
	for d := range r.dsts {
		r.dsts[d].boxes = boxes[d*n : (d+1)*n : (d+1)*n]
	}
	c := &r.crew
	c.cond = sync.NewCond(&c.mu)
	c.serve = make([]func(), workers)
	c.fault = make([]any, workers)
	for w := 1; w < workers; w++ {
		c.serve[w] = func() {
			defer c.leave()
			defer c.exit.Done()
			r.worker(w)
		}
	}
	return r, nil
}

// Lookahead returns the synchronization window in force.
func (r *Runner) Lookahead() sim.Duration { return r.look }

// Workers returns the effective worker count.
func (r *Runner) Workers() int { return r.workers }

// Stats returns the runner's cumulative work counters.
func (r *Runner) Stats() Stats {
	st := Stats{Rounds: r.rounds, Deferred: r.nDefs}
	for d := range r.dsts {
		st.Carried += r.dsts[d].carried
	}
	return st
}

// SetPools gives partition i the packet pool pools[i], which the devices
// on its engine draw from. A packet carried into partition i is adopted by
// pools[i] as it is delivered, on i's goroutine, and at every barrier the
// coordinator evens out the pools' free lists (packet.Balance) through
// reserve, so a partition that absorbs others' packets does not hoard them
// while the one minting them allocates. The caller owns reserve and counts
// it with the pools (packet.Outstanding). Call it before the first Portal.
func (r *Runner) SetPools(pools []*packet.Pool, reserve *packet.Pool) {
	if len(pools) != len(r.parts) {
		panic(fmt.Sprintf("shard: %d pools for %d partitions", len(pools), len(r.parts)))
	}
	r.pools, r.reserve = pools, reserve
}

// Portal builds the netem.Remote endpoint for a link draining on srcEng
// whose destination node runs on dstEng. Both engines must be partition
// engines registered with this runner.
func (r *Runner) Portal(srcEng, dstEng *sim.Engine, dst netem.Node) netem.Remote {
	src, ok := r.byEng[srcEng]
	if !ok {
		panic("shard: Portal source engine is not a registered partition")
	}
	d, ok := r.byEng[dstEng]
	if !ok {
		panic("shard: Portal destination engine is not a registered partition")
	}
	deliver := func(arg any) { dst.Receive(arg.(*packet.Packet)) }
	if r.pools != nil {
		pool := r.pools[d]
		deliver = func(arg any) {
			p := arg.(*packet.Packet)
			pool.Adopt(p)
			dst.Receive(p)
		}
	}
	return &portal{src: &r.srcs[src], box: &r.dsts[d].boxes[src], deliver: deliver}
}

// DeferPart records fn, stamped with partition part's current clock, for
// replay on the control engine at the next barrier. Callbacks replay in
// (time, partition, recording) order, so their effects are independent of
// worker interleaving. Call only from the owning partition's goroutine
// during a round (or from the coordinator between rounds).
func (r *Runner) DeferPart(part int, fn func()) {
	s := &r.srcs[part]
	s.defs = append(s.defs, deferred{at: r.parts[part].Now(), fn: fn})
}

// Run advances the whole sharded simulation to the absolute time until,
// leaving every partition clock and the control clock at until (or at the
// last event when the system drains completely before it — matching
// Engine.Run's clock semantics per engine). A panic in any partition
// reaches the caller; the crew is stopped first.
func (r *Runner) Run(until sim.Time) {
	c := &r.crew
	c.size = min(r.workers, maxProcs())
	if c.size > 1 {
		c.base = c.gen.Load()
		for w := 1; w < c.size; w++ {
			c.exit.Add(1)
			go c.serve[w]()
		}
		defer r.disband()
	}
	for {
		var nextT sim.Time
		haveT := false
		for _, e := range r.parts {
			if t, ok := e.NextEventAt(); ok && (!haveT || t < nextT) {
				nextT, haveT = t, true
			}
		}
		nextC, haveC := r.ctl.NextEventAt()
		if (!haveT || nextT > until) && (!haveC || nextC > until) {
			// Nothing left inside the horizon: bring every clock to it.
			for _, e := range r.parts {
				if e.Now() < until {
					e.AdvanceTo(until)
				}
			}
			if r.ctl.Now() < until {
				r.ctl.AdvanceTo(until)
			}
			return
		}
		// The round horizon: the earliest partition event plus lookahead
		// (no cross-shard packet captured this round can arrive before
		// it), capped by the next control event so barrier-time actions
		// always execute with every partition clock exactly at their
		// timestamp, and by the caller's horizon.
		horizon := until
		if haveT {
			if h := nextT.Add(r.look); h >= nextT && h < horizon {
				horizon = h
			}
		}
		if haveC && nextC < horizon {
			horizon = nextC
		}
		r.step(phaseRun, horizon)
		var captured uint64
		for i := range r.srcs {
			captured += r.srcs[i].captured
		}
		if captured != r.drained {
			r.step(phaseDrain, horizon)
			r.drained = captured
		}
		if r.pools != nil {
			packet.Balance(r.pools, r.reserve, PoolHighWater)
		}
		r.replayDeferred()
		for _, e := range r.parts {
			if e.Now() < horizon {
				e.AdvanceTo(horizon)
			}
		}
		r.ctl.Run(horizon)
		if r.ctl.Now() < horizon {
			r.ctl.AdvanceTo(horizon)
		}
		r.rounds++
	}
}

// step runs one phase on every worker and returns once all of them have
// finished it. Without a crew the coordinator does all the work inline.
// A panic recovered on a worker is raised again here, on the caller.
func (r *Runner) step(phase int, horizon sim.Time) {
	c := &r.crew
	if c.size <= 1 {
		r.share(0, 1, phase, horizon)
		return
	}
	c.phase, c.horizon = phase, horizon
	c.left.Store(int32(c.size - 1))
	c.gen.Add(1)
	c.wake()
	r.share(0, c.size, phase, horizon)
	c.join()
	for w, v := range c.fault {
		if v != nil {
			c.fault[w] = nil
			panic(v)
		}
	}
}

// share does worker w's part of a phase in a crew of n: running, or
// draining into, the partitions w, w+n, ….
func (r *Runner) share(w, n, phase int, horizon sim.Time) {
	for p := w; p < len(r.parts); p += n {
		if phase == phaseRun {
			r.parts[p].Run(horizon)
		} else {
			r.drain(p)
		}
	}
}

// worker is the loop of crew goroutine w: wait for a release, do its
// share, report done, until told to stop.
func (r *Runner) worker(w int) {
	c := &r.crew
	seen := c.base
	for {
		seen = c.await(seen)
		if c.phase == phaseStop {
			return
		}
		r.guarded(w)
		if c.left.Add(-1) == 0 {
			c.wake()
		}
	}
}

// guarded runs worker w's share of the released phase, parking a panic in
// fault[w] for the coordinator instead of killing the process.
func (r *Runner) guarded(w int) {
	c := &r.crew
	defer func() {
		if v := recover(); v != nil {
			c.fault[w] = v
		}
	}()
	r.share(w, c.size, c.phase, c.horizon)
}

// disband stops the crew: it lets any phase in flight finish (the
// coordinator may be unwinding a panic), releases the stop phase and waits
// for every worker goroutine to return. It polls for their exit as it
// polls for a phase's end, so the Wait that joins them finds nothing to
// wait for: blocking there takes a sudog from the runtime's per-P cache,
// which allocates when the goroutine has moved to a P whose cache is empty.
func (r *Runner) disband() {
	c := &r.crew
	c.join()
	c.phase = phaseStop
	c.left.Store(int32(c.size - 1))
	c.gen.Add(1)
	c.wake()
	c.join()
	c.exit.Wait()
	clear(c.fault)
}

// leave counts a worker goroutine out once it has signalled its exit.
func (c *crew) leave() {
	if c.left.Add(-1) == 0 {
		c.wake()
	}
}

// await waits until the generation moves past seen and returns it.
func (c *crew) await(seen uint64) uint64 {
	for i := 1; ; i++ {
		if g := c.gen.Load(); g != seen {
			return g
		}
		if i%64 == 0 {
			if i >= spinPolls {
				c.park(func() bool { return c.gen.Load() != seen })
			}
			runtime.Gosched()
		}
	}
}

// join waits until every worker has finished the released phase.
func (c *crew) join() {
	for i := 1; c.left.Load() != 0; i++ {
		if i%64 == 0 {
			if i >= spinPolls {
				c.park(func() bool { return c.left.Load() == 0 })
			}
			runtime.Gosched()
		}
	}
}

// park blocks until ready holds. Registering as a sleeper before checking
// ready, against wake's change-then-check, means a wake-up cannot be lost:
// either the parker sees the change or the waker sees the sleeper.
func (c *crew) park(ready func() bool) {
	c.mu.Lock()
	c.sleepers.Add(1)
	for !ready() {
		c.cond.Wait()
	}
	c.sleepers.Add(-1)
	c.mu.Unlock()
}

// wake rouses parked waiters after gen or left has changed; without any it
// costs one load.
func (c *crew) wake() {
	if c.sleepers.Load() != 0 {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// drain schedules every packet carried into partition d this round onto
// its engine: sources in ascending ID, each mailbox in (time, capture)
// order. Runs on d's owner after the round's barrier.
func (r *Runner) drain(d int) {
	dst := &r.dsts[d]
	eng := r.parts[d]
	for s := range dst.boxes {
		b := &dst.boxes[s]
		if len(b.xs) == 0 {
			continue
		}
		sortXfers(b.xs)
		for i := range b.xs {
			x := &b.xs[i]
			eng.ScheduleArgAt(x.at, x.deliver, x.pkt)
			x.pkt = nil
		}
		dst.carried += uint64(len(b.xs))
		b.xs = b.xs[:0]
	}
}

// replayDeferred merges the round's deferred callbacks onto the control
// engine in their contractual order. Runs on the coordinator.
func (r *Runner) replayDeferred() {
	n := 0
	for i := range r.srcs {
		n += len(r.srcs[i].defs)
	}
	if n == 0 {
		return
	}
	r.merge = r.merge[:0]
	for i := range r.srcs {
		// Within a partition the deferred list is already in time order —
		// callbacks are recorded as its clock advances — so the
		// cross-partition merge only needs a stable sort by time; ties
		// keep ascending (partition, recording) order by stability.
		r.merge = append(r.merge, r.srcs[i].defs...)
	}
	sortDeferred(r.merge)
	for i := range r.merge {
		d := &r.merge[i]
		r.ctl.ScheduleAt(d.at, d.fn)
		d.fn = nil
		r.nDefs++
	}
	for i := range r.srcs {
		r.srcs[i].defs = r.srcs[i].defs[:0]
	}
}

// sortXfers stably orders a mailbox by arrival time, so equal-time
// captures keep their capture order, with a hand-rolled insertion sort:
// mailboxes are short and nearly sorted, and sort.Slice would allocate on a
// path that promises 0 allocs/op.
func sortXfers(xs []xfer) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i - 1
		for j >= 0 && xs[j].at > x.at {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = x
	}
}

// sortDeferred stably orders the merged deferred list by timestamp;
// equal-time entries keep their (partition, recording) append order.
func sortDeferred(ds []deferred) {
	for i := 1; i < len(ds); i++ {
		d := ds[i]
		j := i - 1
		for j >= 0 && ds[j].at > d.at {
			ds[j+1] = ds[j]
			j--
		}
		ds[j+1] = d
	}
}
