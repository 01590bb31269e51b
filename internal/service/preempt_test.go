package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flov/internal/sweep"
)

// longSpec is testSpec with windows long enough that a millisecond-scale
// slice expires while points are mid-simulation.
func longSpec(rates ...float64) sweep.Spec {
	spec := testSpec(rates...)
	spec.Cycles = 60_000
	spec.Warmup = 500
	return spec
}

// pollSlices returns a slice trigger whose slices end at their n-th
// engine poll, each poll first sleeping pace. A slice then covers a set
// number of simulation quanta, and every quantum costs at least pace of
// wall time, however fast the kernel runs.
func pollSlices(n int, pace time.Duration) func() func() bool {
	return func() func() bool {
		var polls atomic.Int64
		return func() bool {
			time.Sleep(pace)
			return polls.Add(1) >= int64(n)
		}
	}
}

// readStream replays a finished job's NDJSON feed.
func readStream(t *testing.T, base, id string) []StreamEvent {
	t.Helper()
	resp, err := http.Get(base + "/v1/sweeps/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var events []StreamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestPreemptedJobMatchesUnpreempted is the preemption acceptance test:
// a job sliced into many checkpoint/requeue/resume rounds delivers
// exactly the row set an unpreempted run delivers, and the lifecycle is
// observable on the stream and /metrics.
func TestPreemptedJobMatchesUnpreempted(t *testing.T) {
	spec := longSpec(0.02, 0.04, 0.06)
	points := mustPoints(t, spec)
	direct := (&sweep.Engine{}).Run(context.Background(), points)
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}

	// Each slice ends at its third poll, so the first point is always
	// caught mid-run.
	_, ts := newTestServer(t, Config{
		Runners:  1,
		Workers:  1,
		JobSlice: 5 * time.Millisecond,
		slice:    pollSlices(3, 0),
	})

	resp := postSpec(t, ts.URL+"/v1/sweeps", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	final := waitDone(t, ts.URL, st.ID)
	if final.State != StateDone || final.Errors != 0 {
		t.Fatalf("final status: %+v", final)
	}
	if final.Done != len(points) {
		t.Fatalf("Done = %d, want %d", final.Done, len(points))
	}
	if final.Resumes < 1 {
		t.Fatalf("job was never preempted (Resumes = %d); slice too long for the workload?", final.Resumes)
	}

	rresp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rresp.Body.Close() }()
	served, err := io.ReadAll(rresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.TrimSpace(served); !bytes.Equal(got, want) {
		t.Fatalf("preempted job rows differ from unpreempted run:\nserved: %.300s\ndirect: %.300s", got, want)
	}

	// Stream: preempted/resumed pairs, and each point exactly once with
	// its original index despite running across different slices.
	events := readStream(t, ts.URL, st.ID)
	preempted, resumed := 0, 0
	seen := make(map[int]int)
	for _, ev := range events {
		switch ev.Type {
		case EventPreempted:
			preempted++
			if ev.Remaining < 1 || ev.Remaining > len(points) {
				t.Fatalf("preempted event Remaining = %d", ev.Remaining)
			}
		case EventResumed:
			resumed++
		case EventPoint:
			seen[ev.Index]++
		}
	}
	if preempted < 1 || preempted != resumed {
		t.Fatalf("stream: %d preempted vs %d resumed events", preempted, resumed)
	}
	if preempted != final.Resumes {
		t.Fatalf("stream shows %d preemptions, status shows %d", preempted, final.Resumes)
	}
	for i := range points {
		if seen[i] != 1 {
			t.Fatalf("point %d emitted %d times on the stream (want exactly 1); seen=%v", i, seen[i], seen)
		}
	}

	// Metrics: lifecycle counters agree with the observed stream.
	if got := metricValue(t, ts.URL, "flovd_jobs_preempted_total"); got != int64(preempted) {
		t.Fatalf("flovd_jobs_preempted_total = %d, want %d", got, preempted)
	}
	if got := metricValue(t, ts.URL, "flovd_jobs_resumed_total"); got != int64(resumed) {
		t.Fatalf("flovd_jobs_resumed_total = %d, want %d", got, resumed)
	}
	// Snapshot counts depend on where slices land; the counter must at
	// least exist and never exceed one per pause opportunity.
	snaps := metricValue(t, ts.URL, "flovd_points_snapshotted_total")
	if snaps < 0 || snaps > int64(preempted*len(points)) {
		t.Fatalf("flovd_points_snapshotted_total = %d implausible for %d preemptions", snaps, preempted)
	}
}

// TestSlicedShortJobNeverPreempts: a job that fits inside one slice must
// finish exactly as without slicing — no spurious pauses.
func TestSlicedShortJobNeverPreempts(t *testing.T) {
	spec := testSpec(0.02)
	_, ts := newTestServer(t, Config{JobSlice: 30 * time.Second})
	resp := postSpec(t, ts.URL+"/v1/sweeps", spec)
	st := decodeStatus(t, resp)
	final := waitDone(t, ts.URL, st.ID)
	if final.State != StateDone || final.Resumes != 0 {
		t.Fatalf("short job under a long slice: %+v", final)
	}
	if got := metricValue(t, ts.URL, "flovd_jobs_preempted_total"); got != 0 {
		t.Fatalf("flovd_jobs_preempted_total = %d, want 0", got)
	}
}

// TestTimeoutIsAbsoluteAcrossPreemption pins the deadline fix: the job
// deadline is set once at admission, so a sliced job that is preempted
// and requeued many times still cancels when the original JobTimeout
// elapses. Under the old per-slice clock each resume restarted the
// budget, and a job whose slices were all shorter than JobTimeout could
// never time out at all.
func TestTimeoutIsAbsoluteAcrossPreemption(t *testing.T) {
	// Every engine poll costs 10ms and a slice ends at its third poll.
	// The job makes over 50 polls, so it needs over 500ms of wall time
	// however fast the kernel runs: far beyond the 100ms deadline, while
	// each slice stays below it.
	_, ts := newTestServer(t, Config{
		Workers:    1,
		Runners:    1,
		JobSlice:   25 * time.Millisecond,
		JobTimeout: 100 * time.Millisecond,
		slice:      pollSlices(3, 10*time.Millisecond),
	})
	st := decodeStatus(t, postSpec(t, ts.URL+"/v1/sweeps", longSpec(0.05, 0.1, 0.15, 0.2)))
	final := waitDone(t, ts.URL, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("state = %q, want canceled (per-slice clock would run to done)", final.State)
	}
	if !strings.Contains(final.Err, "timeout") {
		t.Fatalf("failure note = %q, want timeout", final.Err)
	}
}
