package sim

// Delay is an ordered delay queue: items pushed at cycle t with latency L
// become visible at cycle t+L. It models a pipelined wire/FIFO between two
// components. Because consumers can only observe items pushed on earlier
// cycles, evaluation order between components within a cycle does not
// matter, which gives the simulator register-transfer semantics.
//
// FIFO order is preserved even for items pushed on the same cycle, so a
// control channel can rely on "credit then notice" ordering.
//
// The queue is head-indexed: items[head:] is the live window, Pop
// advances head, and the window is moved back to the start of the
// backing array only when a Push finds that array full. A pop therefore
// never shifts the queue.
type Delay[T any] struct {
	latency int64 //flovsnap:skip property of the wire, not of the traffic on it
	items   []timed[T]
	head    int //flovsnap:skip ring position; snapshots see only the live window
}

type timed[T any] struct {
	ready int64
	v     T
}

// NewDelay returns a delay queue with the given latency in cycles.
// Latency must be at least 1 to preserve order-independence.
func NewDelay[T any](latency int) *Delay[T] {
	if latency < 1 {
		panic("sim: Delay latency must be >= 1")
	}
	return &Delay[T]{latency: int64(latency)}
}

// Push enqueues v at cycle now; it becomes visible at now+latency.
func (d *Delay[T]) Push(now int64, v T) {
	d.push(timed[T]{ready: now + d.latency, v: v})
}

// PushAfter enqueues v with an extra delay on top of the base latency.
func (d *Delay[T]) PushAfter(now int64, extra int64, v T) {
	d.push(timed[T]{ready: now + d.latency + extra, v: v})
}

// push appends one item, first compacting the live window to the front
// of the backing array if the array is full and has popped slots.
func (d *Delay[T]) push(it timed[T]) {
	if d.head > 0 && len(d.items) == cap(d.items) {
		n := copy(d.items, d.items[d.head:])
		clear(d.items[n:])
		d.items = d.items[:n]
		d.head = 0
	}
	d.items = append(d.items, it)
}

// Ready reports whether an item is visible at cycle now.
func (d *Delay[T]) Ready(now int64) bool {
	return d.head < len(d.items) && d.items[d.head].ready <= now
}

// Pop removes and returns the front item if it is visible at cycle now.
func (d *Delay[T]) Pop(now int64) (T, bool) {
	var zero T
	if !d.Ready(now) {
		return zero, false
	}
	v := d.items[d.head].v
	d.items[d.head] = timed[T]{} // release the reference
	d.head++
	if d.head == len(d.items) {
		d.items = d.items[:0]
		d.head = 0
	}
	return v, true
}

// Drain visits every item visible at cycle now, in order, without
// allocating a result slice.
func (d *Delay[T]) Drain(now int64, fn func(T)) {
	for d.Ready(now) {
		v, _ := d.Pop(now)
		fn(v)
	}
}

// Each visits every queued item (visible or not), in order, without
// removing anything. Used for consistency snapshots (e.g. counting
// in-flight flits when synchronizing credits across a power transition).
func (d *Delay[T]) Each(fn func(T)) {
	for _, it := range d.items[d.head:] {
		fn(it.v)
	}
}

// Len returns the number of queued items (visible or not).
func (d *Delay[T]) Len() int { return len(d.items) - d.head }

// Empty reports whether no items are queued at all.
func (d *Delay[T]) Empty() bool { return d.head == len(d.items) }

// Latency returns the queue's base latency in cycles.
func (d *Delay[T]) Latency() int64 { return d.latency }

// WindowOK reports whether the ring bookkeeping is consistent: the live
// window lies inside the backing array, its length is Len, and every
// popped slot before it has been cleared. Debug assertions call it.
func (d *Delay[T]) WindowOK() bool {
	if d.head < 0 || d.head > len(d.items) || len(d.items[d.head:]) != d.Len() {
		return false
	}
	for _, it := range d.items[:d.head] {
		if it.ready != 0 {
			return false
		}
	}
	return true
}

// Queued is one in-flight item of a Delay with its absolute ready cycle,
// as captured by Queued()/restored by SetQueued (checkpointing).
type Queued[T any] struct {
	Ready int64
	V     T
}

// Queued returns every in-flight item with its absolute ready cycle, in
// queue order.
func (d *Delay[T]) Queued() []Queued[T] {
	live := d.items[d.head:]
	out := make([]Queued[T], len(live))
	for i, it := range live {
		out[i] = Queued[T]{Ready: it.ready, V: it.v}
	}
	return out
}

// SetQueued replaces the queue contents with the given items (absolute
// ready cycles, queue order). The latency is unchanged; it is a property
// of the wire, not of the traffic on it.
func (d *Delay[T]) SetQueued(items []Queued[T]) {
	clear(d.items)
	d.items = d.items[:0]
	d.head = 0
	for _, it := range items {
		d.items = append(d.items, timed[T]{ready: it.Ready, v: it.V})
	}
}
