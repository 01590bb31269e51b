// Package nlog is a lightweight bounded event log for simulator
// introspection: power-state transitions, handshake messages, credit
// events and reconfigurations are recorded into a ring buffer that can be
// dumped when something interesting (or wrong) happens. It exists because
// debugging a distributed power-gating protocol is archaeology — the bug
// is visible long after the cycle that caused it.
package nlog

import (
	"fmt"
	"io"
	"strings"
)

// Kind classifies events.
type Kind uint8

// Event kinds.
const (
	KTransition Kind = iota // router power-state change
	KMsg                    // handshake message processed
	KCredit                 // credit consume/return/bulk-rewrite
	KPacket                 // packet injected/delivered
	KReconfig               // Router Parking reconfiguration
	KGating                 // core-gating mask change
	KService                // serving-layer lifecycle (flovd job queue, drain)
	KFault                  // fault injection/heal, classified packet drops
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KTransition:
		return "trans"
	case KMsg:
		return "msg"
	case KCredit:
		return "credit"
	case KPacket:
		return "pkt"
	case KReconfig:
		return "reconfig"
	case KGating:
		return "gating"
	case KService:
		return "service"
	case KFault:
		return "fault"
	default:
		return "?"
	}
}

// Event is one recorded occurrence.
type Event struct {
	Cycle  int64
	Kind   Kind
	Router int // -1 when not router-specific
	Note   string
}

// String renders one line.
func (e Event) String() string {
	if e.Router >= 0 {
		return fmt.Sprintf("cyc %8d  %-8s r%-3d %s", e.Cycle, e.Kind, e.Router, e.Note)
	}
	return fmt.Sprintf("cyc %8d  %-8s      %s", e.Cycle, e.Kind, e.Note)
}

// Log is a bounded ring of events. The zero value is unusable; use New.
// Not safe for concurrent use (the simulator is single-threaded).
type Log struct {
	buf     []Event
	next    int
	wrapped bool
	enabled [numKinds]bool
	count   int64
}

// New returns a log holding the most recent capacity events, recording
// every kind. Use Only to restrict.
func New(capacity int) *Log {
	if capacity < 1 {
		capacity = 1
	}
	l := &Log{buf: make([]Event, 0, capacity)}
	for k := range l.enabled {
		l.enabled[k] = true
	}
	return l
}

// Only restricts recording to the given kinds (chainable).
func (l *Log) Only(kinds ...Kind) *Log {
	for k := range l.enabled {
		l.enabled[k] = false
	}
	for _, k := range kinds {
		l.enabled[k] = true
	}
	return l
}

// Add records an event (dropping the oldest when full).
func (l *Log) Add(cycle int64, kind Kind, router int, note string) {
	if !l.enabled[kind] {
		return
	}
	l.count++
	e := Event{Cycle: cycle, Kind: kind, Router: router, Note: note}
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
		return
	}
	l.buf[l.next] = e
	l.next = (l.next + 1) % cap(l.buf)
	l.wrapped = true
}

// Addf records a formatted event. Prefer Add with a prebuilt string on
// hot paths; Addf allocates.
func (l *Log) Addf(cycle int64, kind Kind, router int, format string, args ...any) {
	if !l.enabled[kind] {
		return
	}
	l.Add(cycle, kind, router, fmt.Sprintf(format, args...))
}

// Total returns how many events were recorded (including evicted ones).
func (l *Log) Total() int64 { return l.count }

// Events returns the retained events, oldest first.
func (l *Log) Events() []Event {
	if !l.wrapped {
		return append([]Event(nil), l.buf...)
	}
	out := make([]Event, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out
}

// Tail returns the newest n retained events, oldest first.
func (l *Log) Tail(n int) []Event {
	evs := l.Events()
	if len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// WriteTo dumps the retained events, one per line.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	for _, e := range l.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// FilterRouter returns the retained events touching router id.
func (l *Log) FilterRouter(id int) []Event {
	var out []Event
	for _, e := range l.Events() {
		if e.Router == id {
			out = append(out, e)
		}
	}
	return out
}
