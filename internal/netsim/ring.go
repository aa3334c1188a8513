package netsim

import "math/bits"

// ring is the FIFO under a port's flight records, an egress queue's packets
// and its parked waiters: a power-of-two circular buffer addressed by head,
// count and mask. A busy FIFO that never empties reuses the same few cache
// lines for the whole run, and its capacity is the smallest power of two
// that ever held its high-water occupancy — it grows by doubling and never
// shrinks; a restore sizes it for its saved length at once (reserve). The
// zero value is an empty ring.
//
// Order is the only observable: at(0) is the oldest element whatever the
// ring's phase (where head sits, how often it wrapped or grew), and
// snapshots visit elements through ref in that order, so image bytes do
// not depend on phase either.
type ring[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head uint32
	n    uint32
}

func (r *ring[T]) len() int { return int(r.n) }

// at returns the i-th oldest element, 0 <= i < len.
func (r *ring[T]) at(i int) T {
	return r.buf[(r.head+uint32(i))&uint32(len(r.buf)-1)]
}

// ref returns the i-th oldest slot, 0 <= i < len, for visiting in place.
func (r *ring[T]) ref(i int) *T {
	return &r.buf[(r.head+uint32(i))&uint32(len(r.buf)-1)]
}

func (r *ring[T]) push(v T) {
	if int(r.n) == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&uint32(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the oldest element; the ring must not be empty.
// The vacated slot is zeroed so the ring never keeps a popped pointer alive.
func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & uint32(len(r.buf)-1)
	r.n--
	return v
}

// grow doubles a full ring, unrolling it so the oldest element lands in
// slot 0.
func (r *ring[T]) grow() {
	buf := make([]T, max(1, 2*len(r.buf)))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

// reserve sizes an empty ring for n elements at once: the smallest power of
// two that holds them.
func (r *ring[T]) reserve(n int) {
	if r.n == 0 && n > len(r.buf) {
		r.buf, r.head = make([]T, 1<<bits.Len(uint(n-1))), 0
	}
}

// reset empties the ring, keeping its capacity.
func (r *ring[T]) reset() {
	clear(r.buf)
	r.head, r.n = 0, 0
}
