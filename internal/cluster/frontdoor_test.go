package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"flov/internal/service"
	"flov/internal/service/client"
	"flov/internal/sweep"
)

func newFrontDoor(t *testing.T, store *Store, cfg FrontDoorConfig) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewFrontDoor(store, cfg).Handler())
	t.Cleanup(srv.Close)
	return srv
}

// postSpec submits spec to path as tenant (raw HTTP: the Go client has
// no tenant header and retries 429s, which these tests observe).
func postSpec(t *testing.T, url string, spec sweep.Spec, tenant string) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Flov-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response) service.JobStatus {
	t.Helper()
	defer func() { _ = resp.Body.Close() }()
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// runWorker runs a polling worker over store for the test's lifetime.
func runWorker(t *testing.T, store *Store, name string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	w := &Worker{Store: store, Name: name, LeaseTTL: time.Minute,
		Poll: 10 * time.Millisecond, Workers: 2}
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

func TestFrontDoorSubmitAndDedup(t *testing.T) {
	store := openStore(t)
	srv := newFrontDoor(t, store, FrontDoorConfig{JobTimeout: time.Hour})

	resp := postSpec(t, srv.URL+"/v1/sweeps", testSpec(0.1), "acme")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	if st.ID == "" || st.State != service.StateQueued || st.Points != 1 || st.Tenant != "acme" {
		t.Fatalf("status = %+v", st)
	}
	if st.DeadlineMS == 0 {
		t.Fatal("JobTimeout did not stamp an absolute deadline")
	}
	// Identical resubmission coincides with the stored job.
	st2 := decodeStatus(t, postSpec(t, srv.URL+"/v1/sweeps", testSpec(0.1), "acme"))
	if st2.ID != st.ID || !st2.Deduped {
		t.Fatalf("resubmit = %+v", st2)
	}
	// The accepted event is on the durable feed exactly once.
	lines, err := store.Events(st.ID, 0)
	if err != nil || len(lines) != 1 {
		t.Fatalf("events = %d lines, err %v", len(lines), err)
	}
	var ev service.StreamEvent
	if err := json.Unmarshal(lines[0], &ev); err != nil || ev.Type != service.EventAccepted ||
		ev.ID != st.ID || ev.Total != 1 {
		t.Fatalf("accepted line = %s (err %v)", lines[0], err)
	}
}

// TestFrontDoorRecordIdentity: the front door names and dedups an
// admitted job from one hash of its point list, so the stored record's
// SpecHash is PointsHash of the points and its ID is their JobID.
func TestFrontDoorRecordIdentity(t *testing.T) {
	store := openStore(t)
	srv := newFrontDoor(t, store, FrontDoorConfig{})
	spec := testSpec(0.1, 0.2)
	points := mustPoints(t, spec)

	st := decodeStatus(t, postSpec(t, srv.URL+"/v1/sweeps", spec, ""))
	rec, err := store.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SpecHash != sweep.PointsHash(points) {
		t.Errorf("SpecHash = %q, want PointsHash %q", rec.SpecHash, sweep.PointsHash(points))
	}
	if rec.ID != JobID(points) || st.ID != rec.ID {
		t.Errorf("ID = %q (status %q), want JobID %q", rec.ID, st.ID, JobID(points))
	}
}

// TestFrontDoorOversizedSpecRejected: a spec that expands past
// sweep.MaxSpecPoints answers 400 on both submit routes and stores no
// job.
func TestFrontDoorOversizedSpecRejected(t *testing.T) {
	store := openStore(t)
	srv := newFrontDoor(t, store, FrontDoorConfig{})
	huge := testSpec(make([]float64, sweep.MaxSpecPoints+1)...)
	for _, route := range []string{"/v1/sweeps", "/v1/sweeps/run"} {
		resp := postSpec(t, srv.URL+route, huge, "acme")
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "points") {
			t.Fatalf("%s: HTTP %d %s, want 400 naming the point cap", route, resp.StatusCode, body)
		}
	}
	if ids, err := store.List(); err != nil || len(ids) != 0 {
		t.Fatalf("rejected spec stored jobs %v (err %v)", ids, err)
	}
}

func TestFrontDoorRateLimit429RetryAfter(t *testing.T) {
	store := openStore(t)
	srv := newFrontDoor(t, store, FrontDoorConfig{RatePerMinute: 60, Burst: 1})

	resp := postSpec(t, srv.URL+"/v1/sweeps", testSpec(0.1), "")
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	// /run is admitted by the same buckets.
	resp = postSpec(t, srv.URL+"/v1/sweeps/run", testSpec(0.2), "")
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive whole-second value", resp.Header.Get("Retry-After"))
	}
	var body service.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("429 body: %+v, err %v", body, err)
	}
	// Another tenant has its own bucket.
	resp2 := postSpec(t, srv.URL+"/v1/sweeps", testSpec(0.3), "other")
	_ = resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant = %d, want 202", resp2.StatusCode)
	}
}

func TestFrontDoorTenantQuota(t *testing.T) {
	store := openStore(t)
	srv := newFrontDoor(t, store, FrontDoorConfig{MaxActivePerTenant: 1, RatePerMinute: 6000})

	resp := postSpec(t, srv.URL+"/v1/sweeps", testSpec(0.1), "acme")
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first = %d", resp.StatusCode)
	}
	// No worker is draining the store, so the slot stays occupied.
	resp = postSpec(t, srv.URL+"/v1/sweeps", testSpec(0.2), "acme")
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over quota = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quota 429 missing Retry-After")
	}
	// Other tenants are unaffected.
	resp2 := postSpec(t, srv.URL+"/v1/sweeps", testSpec(0.2), "other")
	_ = resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant = %d", resp2.StatusCode)
	}
}

// readStream collects NDJSON lines from a stream response.
func readStream(t *testing.T, resp *http.Response) []string {
	t.Helper()
	defer func() { _ = resp.Body.Close() }()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestFrontDoorResumableStream pins statelessness: a client that
// counted its received lines can reconnect — to a brand-new front door
// process — with ?from=N and receive exactly the remainder of the feed.
func TestFrontDoorResumableStream(t *testing.T) {
	store := openStore(t)
	srv := newFrontDoor(t, store, FrontDoorConfig{})

	points := mustPoints(t, testSpec(0.1, 0.2))
	st, err := client.New(srv.URL).Submit(context.Background(), testSpec(0.1, 0.2))
	if err != nil {
		t.Fatal(err)
	}

	w := &Worker{Store: store, Name: "w1", LeaseTTL: time.Minute, Workers: 2}
	driveToDone(t, w, store, st.ID)

	resp, err := http.Get(srv.URL + "/v1/sweeps/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	all := readStream(t, resp)
	if len(all) < 3 { // accepted, claimed, points..., summary
		t.Fatalf("full stream = %d lines", len(all))
	}
	var last service.StreamEvent
	if err := json.Unmarshal([]byte(all[len(all)-1]), &last); err != nil || last.Type != service.EventSummary {
		t.Fatalf("last line = %q (err %v), want summary", all[len(all)-1], err)
	}
	if last.Stats == nil || last.Stats.Jobs != len(points) || last.State != service.StateDone {
		t.Fatalf("summary = %+v", last)
	}

	// "Restart" the front door: a second instance over the same store
	// serves the resumed stream identically.
	srv2 := newFrontDoor(t, store, FrontDoorConfig{})
	from := len(all) - 2
	resp, err = http.Get(srv2.URL + "/v1/sweeps/" + st.ID + "/stream?from=" + strconv.Itoa(from))
	if err != nil {
		t.Fatal(err)
	}
	tail := readStream(t, resp)
	if len(tail) != 2 || tail[0] != all[from] || tail[1] != all[from+1] {
		t.Fatalf("resumed tail = %q, want last two lines of %d", tail, len(all))
	}

	resp, err = http.Get(srv2.URL + "/v1/sweeps/" + st.ID + "/stream?from=-1")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("from=-1 = %d, want 400", resp.StatusCode)
	}
}

// TestFrontDoorSummaryFromDoneMarker: the feed holds no summary line;
// the stream ends with one built from the done marker, so client.Run
// over a finished job returns its rows and stats.
func TestFrontDoorSummaryFromDoneMarker(t *testing.T) {
	store := openStore(t)
	srv := newFrontDoor(t, store, FrontDoorConfig{})
	c := client.New(srv.URL)

	points := mustPoints(t, testSpec(0.1, 0.2))
	st, err := c.Submit(context.Background(), testSpec(0.1, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{Store: store, Name: "w1", LeaseTTL: time.Minute, Workers: 2}
	driveToDone(t, w, store, st.ID)

	data, err := os.ReadFile(store.eventsPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"type":"summary"`) {
		t.Fatalf("feed holds a summary line:\n%s", data)
	}

	rows, stats, err := c.Run(context.Background(), testSpec(0.1, 0.2), nil)
	if err != nil {
		t.Fatalf("Run over a finished job: %v", err)
	}
	if stats.Jobs != len(points) || stats.Errors != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	got, err := MarshalResults(rows)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, referenceBytes(t, points)) {
		t.Error("rows from the replayed feed differ from the reference")
	}
}

// TestFrontDoorStreamTornTail: a crashed writer's fragment at the end
// of the feed becomes its own line when the next event is appended, and
// the stream sends a placeholder for it, so client.Run still sees every
// later line and returns the reference rows.
func TestFrontDoorStreamTornTail(t *testing.T) {
	store := openStore(t)
	srv := newFrontDoor(t, store, FrontDoorConfig{})
	c := client.New(srv.URL)

	points := mustPoints(t, testSpec(0.1, 0.2))
	st, err := c.Submit(context.Background(), testSpec(0.1, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(store.eventsPath(st.ID), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"poi`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	w := &Worker{Store: store, Name: "w1", LeaseTTL: time.Minute, Workers: 2}
	driveToDone(t, w, store, st.ID)

	var types []string
	rows, _, err := c.Run(context.Background(), testSpec(0.1, 0.2), func(ev service.StreamEvent) {
		types = append(types, ev.Type)
	})
	if err != nil {
		t.Fatalf("Run over a feed with a torn line: %v", err)
	}
	if len(types) < 3 || types[0] != service.EventAccepted || types[1] != "unreadable" ||
		types[2] != service.EventClaimed {
		t.Fatalf("stream event types = %q, want accepted, unreadable, claimed, ...", types)
	}
	got, err := MarshalResults(rows)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, referenceBytes(t, points)) {
		t.Error("rows streamed past a torn line differ from the reference")
	}
}

// TestFrontDoorMatchesService is the one-API equivalence gate: the same
// spec through client.Run yields byte-identical rows from a single-node
// flovd and from a front door plus an in-process worker over a store.
func TestFrontDoorMatchesService(t *testing.T) {
	spec := testSpec(0.1, 0.2)
	ctx := context.Background()

	s := service.New(service.Config{Workers: 2})
	single := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		single.Close()
		s.Close()
	})
	singleRows, _, err := client.New(single.URL).Run(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	store := openStore(t)
	srv := newFrontDoor(t, store, FrontDoorConfig{})
	runWorker(t, store, "solo")
	var sawClaim bool
	clusterRows, _, err := client.New(srv.URL).Run(ctx, spec, func(ev service.StreamEvent) {
		sawClaim = sawClaim || (ev.Type == service.EventClaimed && ev.Worker == "solo" && ev.Epoch == 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawClaim {
		t.Error("front-door stream carried no claimed event from the worker")
	}

	want, err := MarshalResults(singleRows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MarshalResults(clusterRows)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("front-door rows differ from single-node flovd:\ncluster: %s\nsingle:  %s", got, want)
	}
}

// TestFrontDoorRunSurvivesDisconnect: front-door jobs are durable, so a
// /run client that hangs up leaves the job queued for any worker.
func TestFrontDoorRunSurvivesDisconnect(t *testing.T) {
	store := openStore(t)
	srv := newFrontDoor(t, store, FrontDoorConfig{})
	c := client.New(srv.URL)

	ctx, cancel := context.WithCancel(context.Background())
	var id string
	_, _, err := c.Run(ctx, testSpec(0.1), func(ev service.StreamEvent) {
		if ev.Type == service.EventAccepted {
			id = ev.ID
			cancel()
		}
	})
	if err == nil || id == "" {
		t.Fatalf("Run = %v (id %q), want a canceled stream after accepted", err, id)
	}
	runWorker(t, store, "w1")
	st, err := c.Wait(context.Background(), id, 10*time.Millisecond)
	if err != nil || st.State != service.StateDone || st.Done != 1 {
		t.Fatalf("after disconnect: %+v, err %v", st, err)
	}
}

func TestFrontDoorResults(t *testing.T) {
	store := openStore(t)
	srv := newFrontDoor(t, store, FrontDoorConfig{})
	c := client.New(srv.URL)
	ctx := context.Background()

	points := mustPoints(t, testSpec(0.1))
	ref := referenceBytes(t, points)
	st, err := c.Submit(ctx, testSpec(0.1))
	if err != nil {
		t.Fatal(err)
	}

	// Unfinished: 409.
	if _, err := c.Results(ctx, st.ID); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("unfinished results: %v, want an HTTP 409 error", err)
	}

	w := &Worker{Store: store, Name: "w1", LeaseTTL: time.Minute, Workers: 2}
	driveToDone(t, w, store, st.ID)

	resp, err := http.Get(srv.URL + "/v1/sweeps/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results = %d", resp.StatusCode)
	}
	if !bytes.Equal(got, ref) {
		t.Error("served results differ from single-node reference bytes")
	}
	rows, err := c.Results(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if data, _ := MarshalResults(rows); !bytes.Equal(data, ref) {
		t.Error("client.Results rows differ from the reference")
	}

	// Status reflects completion.
	final, err := c.Wait(ctx, st.ID, time.Millisecond)
	if err != nil || final.State != service.StateDone || final.Done != 1 {
		t.Fatalf("final status = %+v, err %v", final, err)
	}

	// A canceled job's results answer 410.
	late, _, err := store.Submit(JobRecord{Points: mustPoints(t, testSpec(0.3)),
		SubmittedMS: time.Now().UnixMilli(), DeadlineMS: time.Now().Add(-time.Second).UnixMilli()})
	if err != nil {
		t.Fatal(err)
	}
	driveToDone(t, w, store, late.ID)
	if _, err := c.Results(ctx, late.ID); err == nil || !strings.Contains(err.Error(), "410") {
		t.Fatalf("canceled results: %v, want an HTTP 410 error", err)
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer func() { _ = resp.Body.Close() }()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFrontDoorUnknownJob(t *testing.T) {
	srv := newFrontDoor(t, openStore(t), FrontDoorConfig{})
	for _, path := range []string{"/v1/sweeps/jnope", "/v1/sweeps/jnope/stream", "/v1/sweeps/jnope/results"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s = %d, want 404", path, resp.StatusCode)
		}
	}
	if _, err := client.New(srv.URL).Status(context.Background(), "jnope"); err == nil ||
		!strings.Contains(err.Error(), "unknown job") {
		t.Errorf("client.Status(unknown) = %v, want the server's 404 message", err)
	}
}

func TestFrontDoorTimeoutParam(t *testing.T) {
	store := openStore(t)
	srv := newFrontDoor(t, store, FrontDoorConfig{})

	st := decodeStatus(t, postSpec(t, srv.URL+"/v1/sweeps?timeout_ms=60000", testSpec(0.1), ""))
	if st.DeadlineMS == 0 {
		t.Fatal("timeout_ms did not set a deadline")
	}
	rec, err := store.Job(st.ID)
	if err != nil || rec.DeadlineMS != st.DeadlineMS {
		t.Fatalf("record deadline %d vs status %d (err %v)", rec.DeadlineMS, st.DeadlineMS, err)
	}
	want := time.Now().Add(time.Minute).UnixMilli()
	if d := rec.DeadlineMS - want; d < -5000 || d > 5000 {
		t.Fatalf("deadline %d not ~60s out (want ~%d)", rec.DeadlineMS, want)
	}
	resp := postSpec(t, srv.URL+"/v1/sweeps?timeout_ms=-5", testSpec(0.2), "")
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative timeout_ms = %d, want 400", resp.StatusCode)
	}
}

// TestFrontDoorTimeoutBounds: a timeout_ms whose Duration would
// overflow answers 400 instead of wrapping. 18446744073710 wrapped to a
// deadline under 1 ms out, and the int64 maximum to a negative timeout
// that set none. The largest value that fits is admitted with a
// deadline that far out.
func TestFrontDoorTimeoutBounds(t *testing.T) {
	store := openStore(t)
	srv := newFrontDoor(t, store, FrontDoorConfig{})
	largest := int64(math.MaxInt64 / int64(time.Millisecond))
	for i, tc := range []struct {
		ms   string
		want int
	}{
		{"18446744073710", http.StatusBadRequest},
		{"9223372036854775807", http.StatusBadRequest},
		{strconv.FormatInt(largest+1, 10), http.StatusBadRequest},
		{strconv.FormatInt(largest, 10), http.StatusAccepted},
	} {
		before := time.Now().UnixMilli()
		resp := postSpec(t, srv.URL+"/v1/sweeps?timeout_ms="+tc.ms, testSpec(0.1+0.01*float64(i)), "")
		if resp.StatusCode != tc.want {
			_ = resp.Body.Close()
			t.Fatalf("timeout_ms=%s: HTTP %d, want %d", tc.ms, resp.StatusCode, tc.want)
		}
		if tc.want != http.StatusAccepted {
			_ = resp.Body.Close()
			continue
		}
		st := decodeStatus(t, resp)
		rec, err := store.Job(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if rec.DeadlineMS < before+largest {
			t.Fatalf("timeout_ms=%s: deadline %d, want at least %d", tc.ms, rec.DeadlineMS, before+largest)
		}
	}
}
