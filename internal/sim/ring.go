package sim

import "math/bits"

// Ring is a fixed-size FIFO queue on a circular buffer whose length is
// a power of two, so a slot index is a mask, not a division. Push writes
// one slot and Pop clears one; nothing is ever shifted or compacted.
//
// NewRing fixes the size; the buffer is allocated at the first push,
// not at construction, so building a network allocates none. A ring
// never grows: Push panics when it is full.
//
// A Delay keeps a ring of its own in its fields rather than a Ring: its
// ring grows when full, and the purity rule of flovlint names a write by
// the type whose field it hits, so a link queue's slots must count as
// the Delay's state. Both share the buffer moves and the window check
// below (ringMoved, ringWindowOK).
type Ring[T any] struct {
	buf  []T
	size int // slots the first push allocates, a power of two
	head int // slot of the front item
	n    int // live items, in slots head, head+1, ... (mod size)
}

// NewRing returns an empty ring with room for n items, rounded up to a
// power of two. It allocates nothing.
func NewRing[T any](n int) Ring[T] {
	return Ring[T]{size: 1 << bits.Len(uint(max(n, 1)-1))}
}

// Len returns the number of queued items.
func (r *Ring[T]) Len() int { return r.n }

// Empty reports whether the ring holds nothing.
func (r *Ring[T]) Empty() bool { return r.n == 0 }

// Cap returns the number of slots allocated so far: 0 before the first
// push, the ring's size after it.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Push appends v at the back. It panics when the ring is full.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.alloc()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// alloc allocates the buffer at the first push; a later call means a
// push found the ring full. It is kept out of line so Push stays small
// enough to inline.
//
//go:noinline
func (r *Ring[T]) alloc() {
	if r.buf != nil || r.size == 0 {
		panic("sim: push onto a full Ring")
	}
	r.buf = make([]T, r.size) //flovlint:allow hotalloc -- once per ring, at its first push
}

// ringMoved returns a new buffer of size slots holding, at its front and
// in order, the n items of ring buffer buf that start at slot head.
func ringMoved[T any](buf []T, head, n, size int) []T {
	out := make([]T, size) //flovlint:allow hotalloc -- amortized like the x.f = append(x.f, ...) refills the rule exempts: a ring allocates at its first push, then only when a push finds it full
	for i := 0; i < n; i++ {
		out[i] = buf[(head+i)&(len(buf)-1)]
	}
	return out
}

// At returns the i-th queued item (0 is the front). Call it only with
// i < Len(); the pointer is valid until the next Push or Pop.
func (r *Ring[T]) At(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// Front returns the front item; call it only when the ring is not empty.
func (r *Ring[T]) Front() *T { return &r.buf[r.head] }

// Pop removes and returns the front item, clearing its slot so the ring
// holds no stale references. Call it only when the ring is not empty.
func (r *Ring[T]) Pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Clear removes every item, clearing the slots and keeping the buffer.
func (r *Ring[T]) Clear() {
	clear(r.buf)
	r.head, r.n = 0, 0
}

// WindowOK reports whether the ring's bookkeeping is consistent: the
// buffer is empty or a power of two long, head and count lie inside it,
// and live reports true for every queued slot and false for every free
// one, so a popped slot that was not cleared is caught. Debug assertions
// call it.
func (r *Ring[T]) WindowOK(live func(*T) bool) bool {
	return ringWindowOK(r.buf, r.head, r.n, live)
}

// ringWindowOK is WindowOK for a ring buffer buf whose n live items
// start at slot head.
func ringWindowOK[T any](buf []T, head, n int, live func(*T) bool) bool {
	size := len(buf)
	if size&(size-1) != 0 || n < 0 || n > size || size > 0 && (head < 0 || head >= size) || size == 0 && head != 0 {
		return false
	}
	for i := range buf {
		if live(&buf[i]) != ((i-head)&(size-1) < n) {
			return false
		}
	}
	return true
}
