package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"flov/internal/fault"
	"flov/internal/sweep"
)

// testSpec is a small real grid: len(rates) baseline points on a 4x4
// mesh, cheap enough to simulate in a unit test.
func testSpec(rates ...float64) sweep.Spec {
	return sweep.Spec{
		Patterns:   []string{"uniform"},
		Rates:      rates,
		GatedFracs: []float64{0.5},
		Mechanisms: []string{"baseline"},
		Width:      4, Height: 4,
		Cycles: 4_000, Warmup: 500,
		Seed: 7,
	}
}

func mustPoints(t *testing.T, spec sweep.Spec) []sweep.Job {
	t.Helper()
	points, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return points
}

// newTestServer builds a Server plus an httptest front end and tears
// both down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postSpec(t *testing.T, url string, spec sweep.Spec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response) JobStatus {
	t.Helper()
	defer func() { _ = resp.Body.Close() }()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitDone polls the status endpoint until the job is terminal.
func waitDone(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeStatus(t, resp)
		if st.State == StateDone || st.State == StateCanceled {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return JobStatus{}
}

func metricValue(t *testing.T, base, name string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		var v int64
		if n, _ := fmt.Sscanf(line, name+" %d", &v); n == 1 {
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestEndToEndMatchesDirectEngine is the headline acceptance test: a
// spec submitted over HTTP yields byte-identical result rows to a
// direct engine run, and an immediate resubmission is answered entirely
// from the shared cache, observable on /metrics.
func TestEndToEndMatchesDirectEngine(t *testing.T) {
	cache, err := sweep.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Cache: cache})

	spec := testSpec(0.02, 0.05)
	resp := postSpec(t, ts.URL+"/v1/sweeps", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	if st.Points != 2 {
		t.Fatalf("Points = %d, want 2", st.Points)
	}
	final := waitDone(t, ts.URL, st.ID)
	if final.State != StateDone || final.Errors != 0 {
		t.Fatalf("final status: %+v", final)
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

	// Direct run with a fresh engine, no cache: the reference rows.
	direct := (&sweep.Engine{}).Run(context.Background(), mustPoints(t, spec))
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.TrimSpace(served); !bytes.Equal(got, want) {
		t.Fatalf("served rows differ from direct engine run:\nserved: %.200s\ndirect: %.200s", got, want)
	}

	// Resubmission: all points served from the cache.
	hitsBefore := metricValue(t, ts.URL, "flovd_cache_hits_total")
	resp2 := postSpec(t, ts.URL+"/v1/sweeps", spec)
	st2 := decodeStatus(t, resp2)
	if st2.ID == st.ID {
		t.Fatal("finished job was deduped; resubmission must be a fresh job")
	}
	final2 := waitDone(t, ts.URL, st2.ID)
	if final2.CacheHits != 2 {
		t.Fatalf("resubmission CacheHits = %d, want 2", final2.CacheHits)
	}
	if got := metricValue(t, ts.URL, "flovd_cache_hits_total"); got != hitsBefore+2 {
		t.Fatalf("flovd_cache_hits_total = %d, want %d", got, hitsBefore+2)
	}
	if cached := metricValue(t, ts.URL, "flovd_points_cached_total"); cached != 2 {
		t.Fatalf("flovd_points_cached_total = %d, want 2", cached)
	}
}

// blockingRunner returns a runPoint hook whose points block until
// released per-rate, plus the release function.
func blockingRunner() (func(sweep.Job) sweep.Result, func(rate float64)) {
	mu := sync.Mutex{}
	gates := map[float64]chan struct{}{}
	gate := func(rate float64) chan struct{} {
		mu.Lock()
		defer mu.Unlock()
		ch, ok := gates[rate]
		if !ok {
			ch = make(chan struct{})
			gates[rate] = ch
		}
		return ch
	}
	run := func(j sweep.Job) sweep.Result {
		<-gate(j.Rate)
		return sweep.Result{Job: j}
	}
	release := func(rate float64) { close(gate(rate)) }
	return run, release
}

// TestStreamingIncremental pins that NDJSON progress events arrive
// while later points are still executing — not buffered until the job
// completes.
func TestStreamingIncremental(t *testing.T) {
	run, release := blockingRunner()
	_, ts := newTestServer(t, Config{Workers: 1, runPoint: run})

	spec := testSpec(0.01, 0.02, 0.03)
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: HTTP %d", resp.StatusCode)
	}

	sc := bufio.NewScanner(resp.Body)
	next := func() StreamEvent {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		return ev
	}

	if ev := next(); ev.Type != EventAccepted || ev.Total != 3 {
		t.Fatalf("first event = %+v, want accepted/3", ev)
	}
	// Workers=1 runs points in order. Release only the first point: its
	// start+point events must arrive while points 2 and 3 are blocked.
	release(0.01)
	sawFirstPoint := false
	for i := 0; i < 2; i++ {
		ev := next()
		if ev.Type == EventPoint {
			if ev.Index != 0 {
				t.Fatalf("point event for index %d before release", ev.Index)
			}
			sawFirstPoint = true
		}
	}
	if !sawFirstPoint {
		t.Fatal("no point event arrived while later points were still blocked")
	}

	release(0.02)
	release(0.03)
	var last StreamEvent
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
	}
	if last.Type != EventSummary || last.State != StateDone {
		t.Fatalf("terminal event = %+v, want done summary", last)
	}
}

// TestStreamCancelFreesQueueSlot: cancelling the streaming submitter of
// a queued job cancels the job and frees its admission slot for the
// next submission.
func TestStreamCancelFreesQueueSlot(t *testing.T) {
	run, release := blockingRunner()
	s, ts := newTestServer(t, Config{QueueDepth: 1, Runners: 1, Workers: 1, runPoint: run})

	// Job A occupies the single runner (owned: survives its client).
	specA := testSpec(0.01)
	respA := postSpec(t, ts.URL+"/v1/sweeps", specA)
	stA := decodeStatus(t, respA)
	waitState(t, s, stA.ID, StateRunning)

	// Job B fills the single queue slot via the streaming path.
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	bodyB, err := json.Marshal(testSpec(0.02))
	if err != nil {
		t.Fatal(err)
	}
	reqB, err := http.NewRequestWithContext(ctxB, http.MethodPost, ts.URL+"/v1/sweeps/run", bytes.NewReader(bodyB))
	if err != nil {
		t.Fatal(err)
	}
	respB, err := http.DefaultClient.Do(reqB)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = respB.Body.Close() }()
	// Read the accepted event so we know B is admitted.
	scB := bufio.NewScanner(respB.Body)
	if !scB.Scan() {
		t.Fatalf("no accepted event: %v", scB.Err())
	}
	var evB StreamEvent
	if err := json.Unmarshal(scB.Bytes(), &evB); err != nil {
		t.Fatal(err)
	}

	// Queue full: a third submission is rejected with 429.
	respC := postSpec(t, ts.URL+"/v1/sweeps", testSpec(0.03))
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: HTTP %d, want 429", respC.StatusCode)
	}
	if respC.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After hint")
	}
	_ = respC.Body.Close()

	// Cancel B's stream: the job cancels and the slot frees.
	cancelB()
	waitState(t, s, evB.ID, StateCanceled)

	respC2 := postSpec(t, ts.URL+"/v1/sweeps", testSpec(0.03))
	stC := decodeStatus(t, respC2)
	if respC2.StatusCode != http.StatusAccepted {
		t.Fatalf("post-cancel submit: HTTP %d, want 202", respC2.StatusCode)
	}

	release(0.01)
	release(0.03)
	waitDone(t, ts.URL, stA.ID)
	waitDone(t, ts.URL, stC.ID)
	if rejected := metricValue(t, ts.URL, "flovd_jobs_rejected_total"); rejected != 1 {
		t.Fatalf("flovd_jobs_rejected_total = %d, want 1", rejected)
	}
	if canceled := metricValue(t, ts.URL, "flovd_jobs_canceled_total"); canceled != 1 {
		t.Fatalf("flovd_jobs_canceled_total = %d, want 1", canceled)
	}
}

// waitState polls the in-process job table for a state.
func waitState(t *testing.T, s *Server, id, state string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j := s.lookup(id); j != nil {
			j.mu.Lock()
			got := j.state
			j.mu.Unlock()
			if got == state {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, state)
}

// TestDedupInflight: an identical spec submitted while the first is in
// flight attaches to it instead of enqueueing a second job.
func TestDedupInflight(t *testing.T) {
	run, release := blockingRunner()
	_, ts := newTestServer(t, Config{Workers: 1, runPoint: run})

	spec := testSpec(0.04)
	st1 := decodeStatus(t, postSpec(t, ts.URL+"/v1/sweeps", spec))
	st2 := decodeStatus(t, postSpec(t, ts.URL+"/v1/sweeps", spec))
	if st2.ID != st1.ID || !st2.Deduped {
		t.Fatalf("second submission not deduped: %+v vs %+v", st2, st1)
	}
	if accepted := metricValue(t, ts.URL, "flovd_jobs_accepted_total"); accepted != 1 {
		t.Fatalf("flovd_jobs_accepted_total = %d, want 1", accepted)
	}
	if deduped := metricValue(t, ts.URL, "flovd_jobs_deduped_total"); deduped != 1 {
		t.Fatalf("flovd_jobs_deduped_total = %d, want 1", deduped)
	}
	release(0.04)
	waitDone(t, ts.URL, st1.ID)
}

// TestGracefulDrain: draining rejects new submissions with 503,
// completes queued and running jobs, and leaks no goroutines. The
// forced variant (expired grace) cancels in-flight work through the
// engine's context path.
func TestGracefulDrain(t *testing.T) {
	before := runtime.NumGoroutine()

	run, release := blockingRunner()
	s := New(Config{QueueDepth: 4, Runners: 1, Workers: 1, runPoint: run})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stA := decodeStatus(t, postSpec(t, ts.URL+"/v1/sweeps", testSpec(0.01)))
	stB := decodeStatus(t, postSpec(t, ts.URL+"/v1/sweeps", testSpec(0.02)))
	waitState(t, s, stA.ID, StateRunning)

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Draining: health flips and submissions bounce with 503.
	waitDraining(t, s)
	resp := postSpec(t, ts.URL+"/v1/sweeps", testSpec(0.05))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d, want 503", resp.StatusCode)
	}
	_ = resp.Body.Close()
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: HTTP %d, want 503", hresp.StatusCode)
	}
	_ = hresp.Body.Close()

	// Unblock: both jobs must complete, then Drain returns cleanly.
	release(0.01)
	release(0.02)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, id := range []string{stA.ID, stB.ID} {
		st := waitDone(t, ts.URL, id)
		if st.State != StateDone {
			t.Fatalf("job %s state = %s after clean drain", id, st.State)
		}
	}

	ts.Close()
	// All runner goroutines must be gone (retry: HTTP teardown lags).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before+2 {
		time.Sleep(20 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after drain", before, got)
	}
}

// TestForcedDrainCancelsInFlight: when the drain grace expires, queued
// jobs cancel via the engine's context path instead of hanging forever.
func TestForcedDrainCancelsInFlight(t *testing.T) {
	run, release := blockingRunner()
	s := New(Config{QueueDepth: 4, Runners: 1, Workers: 1, runPoint: run})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	// A blocks the runner; B sits in the queue.
	stA := decodeStatus(t, postSpec(t, ts.URL+"/v1/sweeps", testSpec(0.01)))
	stB := decodeStatus(t, postSpec(t, ts.URL+"/v1/sweeps", testSpec(0.02)))
	waitState(t, s, stA.ID, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()

	// The grace expires; A's running point must still complete on its
	// own (simulation points are not preempted), so release it after
	// the cancellation fires. B's gate opens too: cancellation races
	// point scheduling by design, so its single point may or may not
	// start — either way the job must finish as canceled.
	time.Sleep(100 * time.Millisecond)
	release(0.01)
	release(0.02)
	if err := <-drained; err != context.DeadlineExceeded {
		t.Fatalf("Drain = %v, want context.DeadlineExceeded", err)
	}

	if st := waitDone(t, ts.URL, stB.ID); st.State != StateCanceled {
		t.Fatalf("queued job state = %s after forced drain, want canceled", st.State)
	}
}

func waitDraining(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Draining() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("server never started draining")
}

// TestPointPanicIsolation: a panicking point becomes an error row and a
// failed-job metric; the daemon and the job's siblings are unharmed.
func TestPointPanicIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, runPoint: func(j sweep.Job) sweep.Result {
		if j.Rate == 0.02 {
			panic("injected point panic")
		}
		return sweep.Result{Job: j}
	}})
	st := decodeStatus(t, postSpec(t, ts.URL+"/v1/sweeps", testSpec(0.01, 0.02, 0.03)))
	final := waitDone(t, ts.URL, st.ID)
	if final.State != StateDone || final.Errors != 1 {
		t.Fatalf("final = %+v, want done with 1 error", final)
	}
	if failed := metricValue(t, ts.URL, "flovd_jobs_failed_total"); failed != 1 {
		t.Fatalf("flovd_jobs_failed_total = %d, want 1", failed)
	}
	if pfailed := metricValue(t, ts.URL, "flovd_points_failed_total"); pfailed != 1 {
		t.Fatalf("flovd_points_failed_total = %d, want 1", pfailed)
	}
}

// TestFaultMetrics: a fault-scenario spec submitted through the daemon
// is observable on /metrics — injected faults and classified drops from
// a real run, and the violated-trial counter when a fault point errors.
func TestFaultMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := testSpec(0.02)
	spec.Faults = &fault.Spec{
		Seed: 11,
		// Kill an interior router for good early on and classify stuck
		// packets quickly so drops land inside the short test run.
		Schedule:    []fault.Event{{At: 600, Kind: "router", Node: 5}},
		DropTimeout: 200,
	}
	st := decodeStatus(t, postSpec(t, ts.URL+"/v1/sweeps", spec))
	final := waitDone(t, ts.URL, st.ID)
	if final.State != StateDone || final.Errors != 0 {
		t.Fatalf("final = %+v, want done with 0 errors", final)
	}
	if got := metricValue(t, ts.URL, "flovd_faults_injected_total"); got == 0 {
		t.Fatal("flovd_faults_injected_total = 0 after a scheduled fault fired")
	}
	if got := metricValue(t, ts.URL, "flovd_packets_dropped_total"); got == 0 {
		t.Fatal("flovd_packets_dropped_total = 0 after a permanent router kill")
	}
	if got := metricValue(t, ts.URL, "flovd_trials_violated_total"); got != 0 {
		t.Fatalf("flovd_trials_violated_total = %d on a clean run, want 0", got)
	}
}

// TestFaultTrialViolatedMetric: a fault-scenario point that errors bumps
// flovd_trials_violated_total; the same failure on a fault-free point
// does not.
func TestFaultTrialViolatedMetric(t *testing.T) {
	_, ts := newTestServer(t, Config{runPoint: func(j sweep.Job) sweep.Result {
		return sweep.Result{Job: j, Err: "oracle: flit conservation violated"}
	}})
	plain := testSpec(0.02)
	st := decodeStatus(t, postSpec(t, ts.URL+"/v1/sweeps", plain))
	waitDone(t, ts.URL, st.ID)
	if got := metricValue(t, ts.URL, "flovd_trials_violated_total"); got != 0 {
		t.Fatalf("flovd_trials_violated_total = %d after fault-free error, want 0", got)
	}

	faulty := testSpec(0.02)
	faulty.Faults = &fault.Spec{Seed: 3, LinkRate: 1e-4}
	st = decodeStatus(t, postSpec(t, ts.URL+"/v1/sweeps", faulty))
	waitDone(t, ts.URL, st.ID)
	if got := metricValue(t, ts.URL, "flovd_trials_violated_total"); got != 1 {
		t.Fatalf("flovd_trials_violated_total = %d after fault-scenario error, want 1", got)
	}
}

// TestHandlerPanicRecovered: a panicking handler answers 500 and bumps
// the panic counter instead of killing the daemon.
func TestHandlerPanicRecovered(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	h := s.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("recovered panic: HTTP %d, want 500", rec.Code)
	}
	if got := metricValue(t, ts.URL, "flovd_handler_panics_total"); got != 1 {
		t.Fatalf("flovd_handler_panics_total = %d, want 1", got)
	}
}

// TestBadSpecRejected: parse and expansion failures answer 400.
func TestBadSpecRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: HTTP %d, want 400", resp.StatusCode)
	}
	_ = resp.Body.Close()

	bad := testSpec(0.02)
	bad.Mechanisms = []string{"warp-drive"}
	resp2 := postSpec(t, ts.URL+"/v1/sweeps", bad)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad mechanism: HTTP %d, want 400", resp2.StatusCode)
	}
	_ = resp2.Body.Close()
}

// TestDebugEventsTail: the ring records the lifecycle and /debug/events
// serves it.
func TestDebugEventsTail(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st := decodeStatus(t, postSpec(t, ts.URL+"/v1/sweeps", testSpec(0.02)))
	waitDone(t, ts.URL, st.ID)
	resp, err := http.Get(ts.URL + "/debug/events?n=50")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"accepted " + st.ID, "start " + st.ID, "finish " + st.ID} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("/debug/events missing %q:\n%s", want, data)
		}
	}
}

// TestJobTimeout: a job exceeding the ceiling cancels through the
// engine's context path and reports why.
func TestJobTimeout(t *testing.T) {
	run, release := blockingRunner()
	s, ts := newTestServer(t, Config{Workers: 1, JobTimeout: 50 * time.Millisecond, runPoint: run})
	st := decodeStatus(t, postSpec(t, ts.URL+"/v1/sweeps", testSpec(0.01, 0.02)))
	waitState(t, s, st.ID, StateRunning)
	time.Sleep(100 * time.Millisecond) // let the ceiling expire
	release(0.01)
	release(0.02)
	final := waitDone(t, ts.URL, st.ID)
	if final.State != StateCanceled || !strings.Contains(final.Err, "timeout") {
		t.Fatalf("final = %+v, want canceled with timeout note", final)
	}
}

// TestStreamResumeFrom: ?from=N skips the N feed lines a reconnecting
// client already holds, the same contract as a cluster front door.
func TestStreamResumeFrom(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	st := decodeStatus(t, postSpec(t, ts.URL+"/v1/sweeps", testSpec(0.01, 0.02)))
	waitDone(t, ts.URL, st.ID)

	stream := func(query string) (int, []string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/stream" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		var lines []string
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		return resp.StatusCode, lines
	}
	_, all := stream("")
	if len(all) < 4 {
		t.Fatalf("full stream = %d lines", len(all))
	}
	from := len(all) - 2
	code, tail := stream(fmt.Sprintf("?from=%d", from))
	if code != http.StatusOK || len(tail) != 2 || tail[0] != all[from] || tail[1] != all[from+1] {
		t.Fatalf("from=%d: HTTP %d, %q; want the last two of %d lines", from, code, tail, len(all))
	}
	if code, _ := stream("?from=-1"); code != http.StatusBadRequest {
		t.Fatalf("from=-1: HTTP %d, want 400", code)
	}
}
