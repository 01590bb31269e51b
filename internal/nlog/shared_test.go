package nlog

import (
	"fmt"
	"sync"
	"testing"
)

// TestSharedConcurrentAdd pins that Shared serializes concurrent
// recorders (meaningful under -race) and keeps the ring bounded.
func TestSharedConcurrentAdd(t *testing.T) {
	s := NewShared(16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Addf(int64(i), KService, -1, "g%d event %d", g, i)
			}
		}(g)
	}
	wg.Wait()
	if n := len(s.Tail(400)); n != 16 {
		t.Fatalf("retained %d events, want 16", n)
	}
	if n := len(s.Tail(4)); n != 4 {
		t.Fatalf("Tail(4) returned %d events", n)
	}
}

func TestServiceKindString(t *testing.T) {
	if got := fmt.Sprint(KService); got != "service" {
		t.Fatalf("KService.String() = %q", got)
	}
}
