package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"flov/internal/sweep"
)

// streamLines posts spec to /v1/sweeps/run and returns a channel of the
// stream's events, closed when the stream ends.
func streamLines(t *testing.T, base string, spec sweep.Spec) <-chan StreamEvent {
	t.Helper()
	resp := postSpec(t, base+"/v1/sweeps/run", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: HTTP %d", resp.StatusCode)
	}
	out := make(chan StreamEvent, 64)
	go func() {
		defer close(out)
		defer func() { _ = resp.Body.Close() }()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			var ev StreamEvent
			if json.Unmarshal(sc.Bytes(), &ev) != nil {
				ev = StreamEvent{Type: "unparseable"}
			}
			out <- ev
		}
	}()
	return out
}

// TestStreamCacheHitIsOnePointLine pins the per-point stream grammar: a
// simulated point is a "start" line then its "point" line, a cache hit
// is its "point" line alone.
func TestStreamCacheHitIsOnePointLine(t *testing.T) {
	cache, err := sweep.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Cache: cache,
		runPoint: func(j sweep.Job) sweep.Result { return sweep.Result{Job: j} }})
	spec := testSpec(0.01, 0.02, 0.03)

	check := func(name string, want []string, status string) {
		t.Helper()
		var all []StreamEvent
		for ev := range streamLines(t, ts.URL, spec) {
			all = append(all, ev)
		}
		if len(all) < 2 || all[0].Type != EventAccepted || all[len(all)-1].Type != EventSummary {
			t.Fatalf("%s: stream %+v, want accepted ... summary", name, all)
		}
		perPoint := make([][]string, 3)
		for _, ev := range all[1 : len(all)-1] {
			if ev.Index < 0 || ev.Index >= len(perPoint) {
				t.Fatalf("%s: line %+v outside the points", name, ev)
			}
			perPoint[ev.Index] = append(perPoint[ev.Index], ev.Type)
			if ev.Type == EventPoint && ev.Status != status {
				t.Fatalf("%s: point %d status %q, want %q", name, ev.Index, ev.Status, status)
			}
		}
		for i, got := range perPoint {
			if !slices.Equal(got, want) {
				t.Fatalf("%s: point %d lines %v, want %v", name, i, got, want)
			}
		}
	}
	check("cold", []string{EventStart, EventPoint}, PointDone)
	check("warm", []string{EventPoint}, PointCached)
}

// TestStreamLiveWhilePointBlocked: with the runner blocked on point k,
// the client already holds the lines of every point before k. The
// stream batches its flushes, but never holds a line back while the
// job waits.
func TestStreamLiveWhilePointBlocked(t *testing.T) {
	const k = 3
	rates := []float64{0.01, 0.02, 0.03, 0.04, 0.05}
	gate := make(chan struct{})
	cache, err := sweep.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Cache: cache,
		runPoint: func(j sweep.Job) sweep.Result {
			if j.Rate == rates[k] {
				<-gate
			}
			return sweep.Result{Job: j}
		}})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // runs before the server's cleanup, so Close never waits on the gate

	// Points before k are cache hits, the burst a warm job streams.
	for range streamLines(t, ts.URL, testSpec(rates[:k]...)) {
	}

	lines := streamLines(t, ts.URL, testSpec(rates...))
	got := map[int]bool{}
	for len(got) < k {
		select {
		case ev, ok := <-lines:
			if !ok {
				t.Fatal("stream ended while point k was blocked")
			}
			if ev.Type == EventPoint {
				if ev.Index >= k {
					t.Fatalf("point %d arrived while point %d was blocked", ev.Index, k)
				}
				got[ev.Index] = true
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("with point %d blocked, the client holds point lines %v, want all of 0..%d", k, got, k-1)
		}
	}
	release()
	var last StreamEvent
	for ev := range lines {
		last = ev
	}
	if last.Type != EventSummary || last.State != StateDone {
		t.Fatalf("terminal event = %+v, want done summary", last)
	}
}
