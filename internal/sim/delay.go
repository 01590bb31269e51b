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
// The items live in a ring buffer of a power-of-two size: buf holds n
// items from slot head on, wrapping at the end. Push writes one slot
// and Pop clears one; nothing is shifted. The buffer is allocated at
// the first push and doubles only when a push finds it full: a control
// queue can take more than one item per cycle, and the input links of a
// frozen router keep queuing. (This is Ring's layout, kept in the
// Delay's own fields; see Ring.)
//
// A Delay wired to a Calendar files its consumer at the ready cycle of
// every item that reaches the head of the queue, so the consumer is
// visited when the item becomes visible.
type Delay[T any] struct {
	latency  int64 //flovsnap:skip property of the wire, not of the traffic on it
	buf      []timed[T]
	head     int       //flovsnap:skip ring position; snapshots see only the live window
	n        int       //flovsnap:skip ring length; snapshots see only the live window
	cal      *Calendar //flovsnap:skip wiring installed by network.New
	consumer int       //flovsnap:skip wiring installed by network.New
	mark     *uint64   //flovsnap:skip wiring installed by the consumer (SetMark)
	bit      uint64    //flovsnap:skip wiring installed by the consumer (SetMark)
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

// SetConsumer makes every later push onto an empty queue file consumer
// in cal at the pushed item's ready cycle. The consumer's own visits
// must file it for the head left behind (see push).
func (d *Delay[T]) SetConsumer(cal *Calendar, consumer int) {
	d.cal, d.consumer = cal, consumer
}

// SetMark makes the queue keep bit set in *mark exactly while it holds
// an item, so a consumer of several queues polls only the non-empty
// ones. It sets or clears the bit for the current contents at once.
func (d *Delay[T]) SetMark(mark *uint64, bit uint64) {
	d.mark, d.bit = mark, bit
	d.syncMark()
}

// syncMark sets or clears the mark bit to match whether the queue holds
// anything.
func (d *Delay[T]) syncMark() {
	if d.mark == nil {
		return
	}
	if d.n == 0 {
		*d.mark &^= d.bit
	} else {
		*d.mark |= d.bit
	}
}

// Push enqueues v at cycle now; it becomes visible at now+latency.
func (d *Delay[T]) Push(now int64, v T) {
	d.push(timed[T]{ready: now + d.latency, v: v})
}

// PushAfter enqueues v with an extra delay on top of the base latency.
func (d *Delay[T]) PushAfter(now int64, extra int64, v T) {
	d.push(timed[T]{ready: now + d.latency + extra, v: v})
}

// push appends one item. An item pushed onto an empty queue becomes its
// head, so the consumer is filed for the item's ready cycle. An item
// queued behind others needs no filing: it is visible no earlier than
// the head, and the visit that takes the head files the consumer again
// for whatever head is left.
func (d *Delay[T]) push(it timed[T]) {
	if d.n == 0 {
		if d.cal != nil {
			d.cal.File(d.consumer, it.ready)
		}
		if d.mark != nil {
			*d.mark |= d.bit
		}
	}
	d.put(it)
}

// put writes it into the slot after the back of the ring, doubling the
// ring first if it is full.
func (d *Delay[T]) put(it timed[T]) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)&(len(d.buf)-1)] = it
	d.n++
}

// ringMin is the smallest ring a Delay allocates.
const ringMin = 4

// grow doubles the ring, or allocates the first one. It is kept out of
// line so push stays small.
//
//go:noinline
func (d *Delay[T]) grow() {
	d.buf, d.head = ringMoved(d.buf, d.head, d.n, max(2*len(d.buf), ringMin)), 0
}

// Ready reports whether an item is visible at cycle now.
func (d *Delay[T]) Ready(now int64) bool {
	return d.n != 0 && d.buf[d.head].ready <= now
}

// NextReady returns the cycle the front item becomes visible, or Never
// when the queue is empty.
func (d *Delay[T]) NextReady() int64 {
	if d.n == 0 {
		return Never
	}
	return d.buf[d.head].ready
}

// Pop removes and returns the front item if it is visible at cycle now.
func (d *Delay[T]) Pop(now int64) (v T, ok bool) {
	if !d.Ready(now) {
		return v, false
	}
	v = d.buf[d.head].v
	d.buf[d.head] = timed[T]{} // release the reference
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	if d.n == 0 && d.mark != nil {
		*d.mark &^= d.bit
	}
	return v, true
}

// Drain visits every item visible at cycle now, in order, without
// allocating a result slice.
func (d *Delay[T]) Drain(now int64, fn func(T)) {
	for {
		v, ok := d.Pop(now)
		if !ok {
			return
		}
		fn(v)
	}
}

// Each visits every queued item (visible or not), in order, without
// removing anything. Used for consistency snapshots (e.g. counting
// in-flight flits when synchronizing credits across a power transition).
func (d *Delay[T]) Each(fn func(T)) {
	for i := 0; i < d.n; i++ {
		fn(d.buf[(d.head+i)&(len(d.buf)-1)].v)
	}
}

// Len returns the number of queued items (visible or not).
func (d *Delay[T]) Len() int { return d.n }

// Empty reports whether no items are queued at all.
func (d *Delay[T]) Empty() bool { return d.n == 0 }

// Latency returns the queue's base latency in cycles.
func (d *Delay[T]) Latency() int64 { return d.latency }

// WindowOK reports whether the ring bookkeeping is consistent (see
// Ring.WindowOK): every queued item has a ready cycle, which is at least
// 1, and every free slot has been cleared. Debug assertions call it.
func (d *Delay[T]) WindowOK() bool {
	return ringWindowOK(d.buf, d.head, d.n, func(it *timed[T]) bool { return it.ready != 0 })
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
	out := make([]Queued[T], d.n)
	for i := range out {
		it := &d.buf[(d.head+i)&(len(d.buf)-1)]
		out[i] = Queued[T]{Ready: it.ready, V: it.v}
	}
	return out
}

// SetQueued replaces the queue contents with the given items (absolute
// ready cycles, queue order). The latency is unchanged; it is a property
// of the wire, not of the traffic on it. It files nothing: a restore
// files every component itself. It keeps the mark bit (SetMark) in step.
func (d *Delay[T]) SetQueued(items []Queued[T]) {
	clear(d.buf)
	d.head, d.n = 0, 0
	for _, it := range items {
		d.put(timed[T]{ready: it.Ready, v: it.V})
	}
	d.syncMark()
}
