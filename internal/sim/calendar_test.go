package sim

import (
	"slices"
	"testing"
)

// walk visits the ids filed for the calendar's current cycle in
// ascending order, the way the network's Step does, calling visit on
// each, and returns them.
func walk(c *Calendar, visit func(id int)) []int {
	var got []int
	for id := c.Next(0, c.ids); id >= 0; id = c.Next(id+1, c.ids) {
		got = append(got, id)
		visit(id)
	}
	return got
}

// An id filed mid-walk for the current cycle runs in the same walk if
// it is above the walk's position, and not at all if the walk has
// passed it; Advance then clears the cycle, so the passed id does not
// leak into a later one.
func TestCalendarMidWalkFiling(t *testing.T) {
	c := NewCalendar(130, 2)
	c.File(3, 0)
	c.File(70, 0)
	got := walk(c, func(id int) {
		if id == 3 {
			c.File(129, 0) // above the walk: runs this cycle
			c.File(64, 0)  // above the walk, next bitset word
			c.File(1, 0)   // below the walk: passed
		}
	})
	if want := []int{3, 64, 70, 129}; !slices.Equal(got, want) {
		t.Fatalf("walk visited %v, want %v", got, want)
	}
	if c.Next(0, c.ids) != 1 {
		t.Fatal("id filed below the walk lost its bit")
	}
	c.Advance()
	if got := walk(c, func(int) {}); len(got) != 0 {
		t.Fatalf("cycle 1 visits %v, want none", got)
	}
	c.Advance()
	c.Advance()
	c.Advance()
	if got := walk(c, func(int) {}); len(got) != 0 {
		t.Fatalf("cycle 4 (cycle 0's slot again) visits %v, want none", got)
	}
}

// Filings land on their own cycle within the horizon; a later cycle is
// clamped to the horizon, an earlier one to the current cycle, and Never
// files nothing.
func TestCalendarHorizonClamp(t *testing.T) {
	c := NewCalendar(8, 2)
	c.File(0, 1)
	c.File(1, 2)
	c.File(2, 1000) // beyond the horizon: clamped to cycle 2
	c.File(3, -5)   // in the past: clamped to cycle 0
	c.File(4, Never)
	want := map[int64][]int{0: {3}, 1: {0}, 2: {1, 2}, 3: nil, 4: nil}
	for cyc := int64(0); cyc <= 4; cyc++ {
		if c.Now() != cyc {
			t.Fatalf("calendar at cycle %d, want %d", c.Now(), cyc)
		}
		if got := walk(c, func(int) {}); !slices.Equal(got, want[cyc]) {
			t.Fatalf("cycle %d visits %v, want %v", cyc, got, want[cyc])
		}
		c.Advance()
	}
}

// Reset empties the wheel at the restored cycle, and FileAll then files
// every id for it, once.
func TestCalendarFileAllOnRestore(t *testing.T) {
	c := NewCalendar(70, 3)
	c.File(5, 2)
	c.File(6, 3)
	c.Reset(1000)
	if got := walk(c, func(int) {}); len(got) != 0 {
		t.Fatalf("reset calendar visits %v", got)
	}
	c.FileAll(1000)
	got := walk(c, func(int) {})
	if len(got) != 70 || got[0] != 0 || got[69] != 69 {
		t.Fatalf("FileAll visits %d ids (%v...), want all 70", len(got), got[:min(len(got), 4)])
	}
	for cyc := 1; cyc <= 4; cyc++ {
		c.Advance()
		if got := walk(c, func(int) {}); len(got) != 0 {
			t.Fatalf("cycle %d after restore visits %v, want none", c.Now(), got)
		}
	}
}

// A Delay with a consumer files it at each pushed item's ready cycle,
// extra delay included.
func TestDelayFilesConsumer(t *testing.T) {
	c := NewCalendar(4, 2)
	d := NewDelay[int](1)
	d.SetConsumer(c, 2)
	d.PushAfter(0, 1, 7) // ready at 2
	if got := walk(c, func(int) {}); len(got) != 0 {
		t.Fatalf("cycle 0 visits %v", got)
	}
	c.Advance()
	d.Push(1, 8) // ready at 2
	c.Advance()
	if got := walk(c, func(int) {}); !slices.Equal(got, []int{2}) {
		t.Fatalf("cycle 2 visits %v, want the consumer", got)
	}
	if d.NextReady() != 2 {
		t.Fatalf("NextReady %d, want 2", d.NextReady())
	}
	d.Drain(2, func(int) {})
	if d.NextReady() != Never {
		t.Fatalf("empty queue NextReady %d, want Never", d.NextReady())
	}
}
