package sim

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at step %d", i)
		}
	}
}

func TestRNGDistinctSeeds(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between distinct seeds", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	err := quick.Check(func(n uint8) bool {
		m := int(n%63) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGBernoulliRate(t *testing.T) {
	r := NewRNG(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.28 || rate > 0.32 {
		t.Fatalf("Bernoulli(0.3) measured %.3f", rate)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(13)
	p := r.Perm(64)
	seen := make([]bool, 64)
	for _, v := range p {
		if v < 0 || v >= 64 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGForkDecorrelates(t *testing.T) {
	base := NewRNG(5)
	f1 := base.Fork(1)
	f2 := base.Fork(2)
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked streams start identically")
	}
}

func TestDelayLatency(t *testing.T) {
	d := NewDelay[int](3)
	d.Push(10, 42)
	for now := int64(10); now < 13; now++ {
		if d.Ready(now) {
			t.Fatalf("visible too early at %d", now)
		}
	}
	v, ok := d.Pop(13)
	if !ok || v != 42 {
		t.Fatalf("Pop(13) = %v, %v", v, ok)
	}
}

func TestDelayFIFOWithinCycle(t *testing.T) {
	d := NewDelay[int](1)
	d.Push(0, 1)
	d.Push(0, 2)
	d.Push(0, 3)
	var got []int
	for d.Ready(1) {
		v, _ := d.Pop(1)
		got = append(got, v)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order violated: %v", got)
	}
}

func TestDelayOrderAcrossCycles(t *testing.T) {
	d := NewDelay[int](1)
	d.Push(0, 1)
	d.Push(1, 2)
	if v, _ := d.Pop(1); v != 1 {
		t.Fatal("first item not first out")
	}
	if d.Ready(1) {
		t.Fatal("second item visible too early")
	}
	if v, _ := d.Pop(2); v != 2 {
		t.Fatal("second item lost")
	}
}

func TestDelayPushAfter(t *testing.T) {
	d := NewDelay[int](1)
	d.PushAfter(0, 5, 9)
	if d.Ready(5) {
		t.Fatal("extra delay ignored")
	}
	if v, ok := d.Pop(6); !ok || v != 9 {
		t.Fatal("PushAfter item lost")
	}
}

func TestDelayEachAndLen(t *testing.T) {
	d := NewDelay[int](2)
	d.Push(0, 7)
	d.Push(0, 8)
	var sum int
	d.Each(func(v int) { sum += v })
	if sum != 15 || d.Len() != 2 || d.Empty() {
		t.Fatalf("Each/Len broken: sum=%d len=%d", sum, d.Len())
	}
}

func TestDelayRejectsZeroLatency(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for latency 0")
		}
	}()
	NewDelay[int](0)
}

func TestDelayDrainConsumesOnlyReady(t *testing.T) {
	d := NewDelay[int](1)
	d.Push(0, 1)
	d.Push(5, 2)
	var got []int
	d.Drain(1, func(v int) { got = append(got, v) })
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("Drain consumed wrong items: %v", got)
	}
	if d.Len() != 1 {
		t.Fatal("unready item removed")
	}
}

// TestDelayMatchesSliceModel drives a Delay and a plain slice model
// through random interleavings of every queue operation, including
// checkpoint round-trips, and checks they agree after each step. The
// queues stay short, so pushes regularly wrap past the end of the ring
// and now and then find it full: both paths are crossed many times.
func TestDelayMatchesSliceModel(t *testing.T) {
	rng := NewRNG(7)
	wraps, grows := 0, 0
	for trial := 0; trial < 200; trial++ {
		d := NewDelay[int](1 + rng.Intn(3))
		var model []Queued[int]
		now := int64(0)
		next := 0
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				switch {
				case d.q.n == len(d.q.buf):
					grows++
				case d.q.head+d.q.n >= len(d.q.buf):
					wraps++
				}
				if op == 0 {
					extra := int64(rng.Intn(4))
					d.PushAfter(now, extra, next)
					model = append(model, Queued[int]{Ready: now + d.Latency() + extra, V: next})
				} else {
					d.Push(now, next)
					model = append(model, Queued[int]{Ready: now + d.Latency(), V: next})
				}
				next++
			case op < 7:
				v, ok := d.Pop(now)
				wantOK := len(model) > 0 && model[0].Ready <= now
				if ok != wantOK || ok && v != model[0].V {
					t.Fatalf("trial %d step %d: Pop(%d) = %d, %v; model front %v", trial, step, now, v, ok, model)
				}
				if ok {
					model = model[1:]
				}
			case op < 8:
				var got []int
				d.Each(func(v int) { got = append(got, v) })
				for i, q := range model {
					if i >= len(got) || got[i] != q.V {
						t.Fatalf("trial %d step %d: Each = %v, model %v", trial, step, got, model)
					}
				}
				if len(got) != len(model) {
					t.Fatalf("trial %d step %d: Each visited %d items, model has %d", trial, step, len(got), len(model))
				}
			case op < 9:
				// Capture and restore into the same queue or a fresh one.
				q := d.Queued()
				if rng.Intn(2) == 0 {
					fresh := NewDelay[int](int(d.Latency()))
					fresh.SetQueued(q)
					d = fresh
				} else {
					d.SetQueued(q)
				}
			default:
				now += int64(rng.Intn(3))
			}
			if got := d.Queued(); len(got) != len(model) || len(model) > 0 && !reflect.DeepEqual(got, model) {
				t.Fatalf("trial %d step %d: Queued = %v, model %v", trial, step, got, model)
			}
			if d.Len() != len(model) || d.Empty() != (len(model) == 0) ||
				d.Ready(now) != (len(model) > 0 && model[0].Ready <= now) || !d.WindowOK() {
				t.Fatalf("trial %d step %d: Len/Empty/Ready/WindowOK disagree with model %v", trial, step, model)
			}
		}
	}
	if wraps == 0 || grows == 0 {
		t.Fatalf("pushes wrapped %d times and grew the ring %d times; want both", wraps, grows)
	}
}
