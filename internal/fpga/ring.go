package fpga

import "slices"

// ring is a FIFO on a circular buffer that doubles when full, so its
// capacity never exceeds twice its peak occupancy (or minRing) however long
// entries circulate through it without it ever draining — the model of a
// bounded hardware FIFO.
type ring[T any] struct {
	buf  []T // length zero or a power of two
	head int
	n    int
}

// minRing is a ring's first capacity. The RX FIFOs of rate-paced ports peak
// at five INFO packets (fanin_dcqcn), a depth a run can first reach long
// after its start; at 4 entries that growth landed in the steady state.
const minRing = 8

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		buf := make([]T, maxI(minRing, 2*len(r.buf)))
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// at returns the i-th oldest entry, 0 <= i < len.
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)&(len(r.buf)-1)] }

// pop removes and returns the oldest entry; the ring must not be empty.
func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// pieceRing retains the last capacity values pushed, oldest overwritten
// first: the NIC's recent-RTT window and the logger's record ring. It grows
// in pieces that are never reallocated, each new one a quarter of what is
// already held (firstPiece at least): the same 1.25x over-reservation as
// append, without re-copying everything retained at every step on the way
// to capacity.
type pieceRing[T any] struct {
	capacity int
	pieces   [][]T
	n        int // values retained
	// oldest is the ring position once full: the next push overwrites it.
	oldest struct{ piece, idx int }
}

// firstPiece is the smallest piece, in values: a quarter of the RTT window,
// so a short test's probes fit one piece, where 256-value pieces cost it
// about nine allocations.
const firstPiece = rttWindow / 4

// push retains v, reporting whether it overwrote the oldest value.
func (r *pieceRing[T]) push(v T) (evicted bool) {
	if r.n == r.capacity {
		o := &r.oldest
		r.pieces[o.piece][o.idx] = v
		if o.idx++; o.idx == len(r.pieces[o.piece]) {
			o.idx = 0
			o.piece = (o.piece + 1) % len(r.pieces)
		}
		return true
	}
	last := len(r.pieces) - 1
	if last < 0 || len(r.pieces[last]) == cap(r.pieces[last]) {
		grow := min(max(r.n/4, firstPiece), r.capacity-r.n)
		r.pieces = append(r.pieces, make([]T, 0, grow))
		last++
	}
	r.pieces[last] = append(r.pieces[last], v)
	r.n++
	return false
}

// spans calls fn on the retained values, oldest first, one run of a piece
// at a time and without copying them.
func (r *pieceRing[T]) spans(fn func([]T)) {
	if r.n == 0 {
		return
	}
	o := r.oldest
	fn(r.pieces[o.piece][o.idx:])
	for k := 1; k < len(r.pieces); k++ {
		fn(r.pieces[(o.piece+k)%len(r.pieces)])
	}
	fn(r.pieces[o.piece][:o.idx])
}

// appendTo appends the retained values to out, oldest first.
func (r *pieceRing[T]) appendTo(out []T) []T {
	out = slices.Grow(out, r.n)
	r.spans(func(vs []T) { out = append(out, vs...) })
	return out
}
