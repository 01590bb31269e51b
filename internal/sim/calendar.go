package sim

import (
	"math"
	"math/bits"
)

// Never is the wake cycle of a component with nothing pending: only a
// new item pushed onto one of its input queues can make it act again.
const Never int64 = math.MaxInt64

// Calendar is a wake calendar: a small timing wheel of per-cycle
// bitsets over component ids. Each cycle the network visits only the ids
// filed for that cycle. A Delay with a consumer files it for the ready
// cycle of a pushed item that becomes the queue's head, and a visited
// component files its own next visit, so a component that cannot act is
// never touched.
//
// Filing is always safe to overdo: a component visited with nothing to
// do runs an exact no-op tick. That is what makes the horizon clamp
// sound: a cycle beyond the wheel's reach is filed at the horizon
// instead, and the early visit files the component again.
type Calendar struct {
	due     []uint64 // one bitset of words words per slot; cycle t lives in slot t&mask
	words   int
	ids     int
	mask    int64
	horizon int64
	now     int64 // the cycle being walked
	cur     int   // offset in due of the current cycle's bitset
}

// NewCalendar returns a calendar over ids component ids whose filings
// reach at most horizon cycles past the current one (at least 1). Its
// storage is allocated here, once.
func NewCalendar(ids, horizon int) *Calendar {
	if horizon < 1 {
		panic("sim: Calendar horizon must be >= 1")
	}
	slots := 1 << bits.Len(uint(horizon)) // a power of two > horizon
	words := (ids + 63) / 64
	return &Calendar{
		due:     make([]uint64, slots*words),
		words:   words,
		ids:     ids,
		mask:    int64(slots - 1),
		horizon: int64(horizon),
	}
}

// Now returns the cycle the calendar is at.
func (c *Calendar) Now() int64 { return c.now }

// File schedules id for a visit at cycle at. A cycle before the current
// one files at the current one, one beyond the horizon files at the
// horizon, and Never files nothing.
func (c *Calendar) File(id int, at int64) {
	if uint64(at-c.now) > uint64(c.horizon) { // before now or past the horizon
		if at == Never {
			return
		}
		at = min(max(at, c.now), c.now+c.horizon)
	}
	c.due[int(at&c.mask)*c.words+id>>6] |= 1 << uint(id&63)
}

// FileAll schedules every id for a visit at cycle at (clamped like File).
func (c *Calendar) FileAll(at int64) {
	for id := 0; id < c.ids; id++ {
		c.File(id, at)
	}
}

// Next returns the lowest id in [from, to) filed for the current cycle,
// or -1. It reads the bitset afresh on every call, so a walk that calls
// Next(id+1, to) after visiting id also runs the higher ids filed during
// the walk.
func (c *Calendar) Next(from, to int) int {
	for w := from >> 6; w<<6 < to; w++ {
		word := c.due[c.cur+w]
		if w == from>>6 {
			word &= ^uint64(0) << uint(from&63)
		}
		if word != 0 {
			if id := w<<6 + bits.TrailingZeros64(word); id < to {
				return id
			}
			return -1
		}
	}
	return -1
}

// Advance clears the current cycle's bitset and moves to the next cycle.
func (c *Calendar) Advance() {
	clear(c.due[c.cur : c.cur+c.words])
	c.now++
	c.cur = int(c.now&c.mask) * c.words
}

// Reset empties the wheel and moves it to cycle now (snapshot restore;
// the caller files whatever must run).
func (c *Calendar) Reset(now int64) {
	clear(c.due)
	c.now = now
	c.cur = int(now&c.mask) * c.words
}
