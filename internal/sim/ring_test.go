package sim

import (
	"reflect"
	"testing"
)

// drain pops every item of r, front first.
func drain(r *Ring[int]) []int {
	var out []int
	for !r.Empty() {
		out = append(out, r.Pop())
	}
	return out
}

// A ring allocates its rounded-up size at the first push, and a push
// onto a full ring doubles it, keeping the items in order across the
// wrap point.
func TestRingAllocatesAtFirstPushAndDoublesWhenFull(t *testing.T) {
	live := func(v *int) bool { return *v != 0 }
	r := NewRing[int](3)
	if r.Cap() != 0 || !r.Empty() || !r.WindowOK(live) {
		t.Fatalf("new ring: cap %d, len %d", r.Cap(), r.Len())
	}
	r.Push(1)
	if r.Cap() != 4 || r.Len() != 1 {
		t.Fatalf("after one push: cap %d, len %d; want cap 4, len 1", r.Cap(), r.Len())
	}
	for i := 2; i <= 4; i++ {
		r.Push(i)
	}
	r.Pop()
	r.Pop()
	r.Push(5)
	r.Push(6) // wraps into the freed slots: the ring is full, head 2
	if r.Cap() != 4 || r.head != 2 || r.Len() != 4 {
		t.Fatalf("cap %d head %d len %d before growing; want 4, 2, 4", r.Cap(), r.head, r.Len())
	}
	r.Push(7)
	if r.Cap() != 8 || !r.WindowOK(live) {
		t.Fatalf("push onto a full ring left cap %d, want 8", r.Cap())
	}
	if got, want := drain(&r), []int{3, 4, 5, 6, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after growing: %v, want %v", got, want)
	}
}

// A ring kept at a steady fill level wraps many times without growing,
// and pops come out in push order.
func TestRingWrapsWithoutGrowing(t *testing.T) {
	r := NewRing[int](8)
	next, want := 1, 1
	for step := 0; step < 100; step++ {
		for r.Len() < 5 {
			r.Push(next)
			next++
		}
		for r.Len() > 2 {
			if got := r.Pop(); got != want {
				t.Fatalf("step %d: popped %d, want %d", step, got, want)
			}
			want++
		}
		if !r.WindowOK(func(v *int) bool { return *v != 0 }) {
			t.Fatalf("step %d: window broken (head %d, len %d)", step, r.head, r.n)
		}
	}
	if r.Cap() != 8 {
		t.Fatalf("a ring that never filled grew to %d slots", r.Cap())
	}
	if next < 3*r.Cap() {
		t.Fatalf("only %d pushes: the ring never wrapped", next-1)
	}
}

// A popped slot that is not cleared is caught: the ring must not keep a
// stale reference the garbage collector would have to trace.
func TestRingWindowOKCatchesDirtyFreeSlot(t *testing.T) {
	live := func(v *int) bool { return *v != 0 }
	r := NewRing[int](4)
	for i := 1; i <= 3; i++ {
		r.Push(i)
	}
	r.Pop()
	if !r.WindowOK(live) {
		t.Fatal("consistent ring reported broken")
	}
	r.buf[0] = 9 // the popped slot, written behind the ring's back
	if r.WindowOK(live) {
		t.Fatal("WindowOK missed a dirty free slot")
	}
	r.buf[0] = 0
	*r.At(1) = 0 // a queued slot that lost its item
	if r.WindowOK(live) {
		t.Fatal("WindowOK missed an empty live slot")
	}
}

// A push onto a full Delay doubles its ring, and items queued on both
// sides of the wrap point keep their order through the move.
func TestDelayGrowsWhenFullKeepingOrder(t *testing.T) {
	d := NewDelay[int](1)
	for i := 1; i <= 4; i++ {
		d.Push(0, i)
	}
	d.Pop(1)
	d.Pop(1)
	for i := 5; i <= 6; i++ {
		d.Push(1, i) // wraps into the freed slots: the ring is full, head 2
	}
	if len(d.q.buf) != ringMin || d.q.head != 2 || d.q.n != ringMin {
		t.Fatalf("cap %d head %d len %d before growing; want %d, 2, %d", len(d.q.buf), d.q.head, d.q.n, ringMin, ringMin)
	}
	d.Push(1, 7)
	if len(d.q.buf) != 2*ringMin || !d.WindowOK() {
		t.Fatalf("push onto a full queue left cap %d, want %d", len(d.q.buf), 2*ringMin)
	}
	var got []int
	d.Drain(2, func(v int) { got = append(got, v) })
	if want := []int{3, 4, 5, 6, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after growing: %v, want %v", got, want)
	}
}

// Items pushed in the same cycle keep their push order, so a control
// channel can send a credit and then a notice that depends on it.
func TestDelaySameCycleOrder(t *testing.T) {
	d := NewDelay[string](1)
	for cycle := int64(0); cycle < 20; cycle++ {
		d.Push(cycle, "credit")
		d.Push(cycle, "notice")
		var got []string
		d.Drain(cycle+1, func(s string) { got = append(got, s) })
		if !reflect.DeepEqual(got, []string{"credit", "notice"}) {
			t.Fatalf("cycle %d: drained %v", cycle, got)
		}
	}
}

// Queued lists the items across the wrap point in queue order, and
// SetQueued rebuilds the same queue, in place or in a fresh Delay.
func TestDelayQueuedRoundTripAcrossWrap(t *testing.T) {
	d := NewDelay[int](2)
	for i := 1; i <= 4; i++ {
		d.Push(int64(i), i)
	}
	for now := int64(3); now <= 5; now++ {
		d.Pop(now)
	}
	d.Push(6, 5)
	d.Push(6, 6)
	if d.q.head+d.q.n <= len(d.q.buf) {
		t.Fatalf("setup: live window (head %d, len %d, cap %d) does not wrap", d.q.head, d.q.n, len(d.q.buf))
	}
	q := d.Queued()
	want := []Queued[int]{{Ready: 6, V: 4}, {Ready: 8, V: 5}, {Ready: 8, V: 6}}
	if !reflect.DeepEqual(q, want) {
		t.Fatalf("Queued = %v, want %v", q, want)
	}
	fresh := NewDelay[int](2)
	fresh.SetQueued(q)
	d.SetQueued(q)
	for _, got := range []*Delay[int]{d, fresh} {
		if !reflect.DeepEqual(got.Queued(), want) || !got.WindowOK() {
			t.Fatalf("after SetQueued: %v, want %v", got.Queued(), want)
		}
	}
}

// SetQueued files nothing: a restore files every component itself.
func TestDelaySetQueuedDoesNotFile(t *testing.T) {
	cal := NewCalendar(1, 8)
	d := NewDelay[int](1)
	d.SetConsumer(cal, 0)
	d.SetQueued([]Queued[int]{{Ready: 0, V: 1}})
	if cal.Next(0, 1) != -1 {
		t.Fatal("SetQueued filed its consumer")
	}
}

// The same check on a Delay, through the ring it holds.
func TestDelayWindowOKCatchesDirtyFreeSlot(t *testing.T) {
	d := NewDelay[int](1)
	for i := 1; i <= 3; i++ {
		d.Push(0, i)
	}
	d.Pop(1)
	if !d.WindowOK() {
		t.Fatal("consistent queue reported broken")
	}
	d.q.buf[0].ready = 5 // the popped slot, written behind the queue's back
	if d.WindowOK() {
		t.Fatal("WindowOK missed a dirty free slot")
	}
}

// A marked queue keeps its bit set exactly while it holds an item and
// touches no other bit; an unmarked one works the same and writes
// nothing outside itself.
func TestDelayMarkTracksContents(t *testing.T) {
	d := NewDelay[int](1)
	d.Push(0, 1)
	mark := uint64(0b1001)
	d.SetMark(&mark, 0b10)
	if mark != 0b1011 {
		t.Fatalf("SetMark on a non-empty queue: mark %b, want 1011", mark)
	}
	d.Push(0, 2)
	d.Pop(1)
	if mark != 0b1011 {
		t.Fatalf("a pop that leaves an item: mark %b, want 1011", mark)
	}
	d.Pop(1)
	if mark != 0b1001 {
		t.Fatalf("the pop that empties the queue: mark %b, want 1001", mark)
	}
	d.PushAfter(1, 3, 3)
	if mark != 0b1011 {
		t.Fatalf("a push onto the empty queue: mark %b, want 1011", mark)
	}
	d.SetQueued(nil)
	if mark != 0b1001 {
		t.Fatalf("SetQueued(nil): mark %b, want 1001", mark)
	}

	u := NewDelay[int](1)
	u.Push(0, 1)
	u.Pop(1)
	if u.bit != 0 || u.mark != &u.bit {
		t.Fatalf("unmarked queue: bit %b, mark aimed elsewhere: %v", u.bit, u.mark != &u.bit)
	}
}
