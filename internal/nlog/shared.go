package nlog

import "sync"

// Shared is a mutex-guarded Log for concurrent recorders. The simulator
// itself is single-threaded and uses Log directly; the serving layer
// (flovd) records from handler and runner goroutines and needs the
// lock. The Cycle field carries whatever monotonic ordinal the caller
// chooses (flovd stamps unix milliseconds).
type Shared struct {
	mu  sync.Mutex
	log *Log
}

// NewShared returns a concurrent ring holding the most recent capacity
// events.
func NewShared(capacity int) *Shared {
	return &Shared{log: New(capacity)}
}

// Addf records a formatted event.
func (s *Shared) Addf(cycle int64, kind Kind, router int, format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log.Addf(cycle, kind, router, format, args...)
}

// Tail returns the newest n retained events, oldest first.
func (s *Shared) Tail(n int) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Tail(n)
}
