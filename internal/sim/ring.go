package sim

import "math/bits"

// Ring is a FIFO queue on a circular buffer whose length is a power of
// two, so a slot index is a mask, not a division. Push writes one slot
// and Pop clears one; nothing is ever shifted or compacted.
//
// NewRing sets the first size; the buffer is allocated at the first
// push, not at construction, so building a network allocates none. A
// push that finds the ring full doubles it, keeping the items in order.
// A queue whose depth is bounded by a protocol (a VC buffer) checks the
// bound itself and so never grows its ring.
type Ring[T any] struct {
	buf  []T
	mask int // len(buf)-1; before the first push, one less than the size it allocates
	head int // slot of the front item
	n    int // live items, in slots head, head+1, ... (mod len(buf))
}

// NewRing returns an empty ring whose first push allocates room for n
// items, rounded up to a power of two. It allocates nothing.
func NewRing[T any](n int) Ring[T] {
	return Ring[T]{mask: 1<<bits.Len(uint(max(n, 1)-1)) - 1}
}

// Len returns the number of queued items.
func (r *Ring[T]) Len() int { return r.n }

// Empty reports whether the ring holds nothing.
func (r *Ring[T]) Empty() bool { return r.n == 0 }

// Cap returns the number of slots allocated so far: 0 before the first
// push.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Push appends v at the back, doubling the ring first if it is full.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&r.mask] = v
	r.n++
}

// grow allocates the first buffer or doubles a full one, moving the
// items to its front in order. It is kept out of line so Push stays
// small enough to inline.
//
//go:noinline
func (r *Ring[T]) grow() {
	out := make([]T, max(2*len(r.buf), r.mask+1))
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.head+i)&r.mask]
	}
	r.buf, r.head, r.mask = out, 0, len(out)-1
}

// At returns the i-th queued item (0 is the front). Call it only with
// i < Len(); the pointer is valid until the next Push or Pop.
func (r *Ring[T]) At(i int) *T { return &r.buf[(r.head+i)&r.mask] }

// Front returns the front item; call it only when the ring is not empty.
func (r *Ring[T]) Front() *T { return &r.buf[r.head] }

// Pop removes and returns the front item, clearing its slot so the ring
// holds no stale references. Call it only when the ring is not empty.
func (r *Ring[T]) Pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & r.mask
	r.n--
	return v
}

// Clear removes every item, clearing the slots and keeping the buffer.
func (r *Ring[T]) Clear() {
	clear(r.buf)
	r.head, r.n = 0, 0
}

// WindowOK reports whether the ring's bookkeeping is consistent: the
// buffer is empty or a power of two long and matches the mask, head and
// count lie inside it,
// and live reports true for every queued slot and false for every free
// one, so a popped slot that was not cleared is caught. Debug assertions
// call it.
func (r *Ring[T]) WindowOK(live func(*T) bool) bool {
	size := len(r.buf)
	if size&(size-1) != 0 || size > 0 && r.mask != size-1 || r.n < 0 || r.n > size || size > 0 && (r.head < 0 || r.head >= size) || size == 0 && r.head != 0 {
		return false
	}
	for i := range r.buf {
		if live(&r.buf[i]) != ((i-r.head)&(size-1) < r.n) {
			return false
		}
	}
	return true
}
