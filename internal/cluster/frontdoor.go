package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flov/internal/service"
	"flov/internal/sweep"
)

// Front door: the cluster's stateless serving layer. It speaks flovd's
// /v1/sweeps API; only the execution backend differs. All job state
// lives in the store, so any number of front doors can serve one
// cluster and a restarted front door resumes exactly where the old one
// stopped — a client re-requests its stream with ?from=<lines already
// seen> and replay continues from the durable event feed. The only
// in-memory state is admission smoothing (token buckets), which is
// deliberately lossy across restarts: forgetting a bucket briefly
// over-admits, never corrupts.

// ErrQuotaExceeded reports a tenant at its unfinished-job quota.
var ErrQuotaExceeded = errors.New("cluster: tenant quota exceeded")

// ErrRateLimited reports a tenant submitting faster than its rate.
var ErrRateLimited = errors.New("cluster: tenant rate limited")

// maxTimeoutMS is the largest ?timeout_ms a submission may carry: the
// longest time.Duration, in whole milliseconds (about 292 years).
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// FrontDoorConfig tunes admission control.
type FrontDoorConfig struct {
	// MaxActivePerTenant caps a tenant's unfinished (queued or running)
	// jobs; further submissions answer 429 until one finishes. <= 0
	// means 4.
	MaxActivePerTenant int
	// RatePerMinute caps a tenant's submission rate (token bucket).
	// <= 0 means 120.
	RatePerMinute int
	// Burst is the bucket depth. <= 0 means max(4, RatePerMinute/10).
	Burst int
	// JobTimeout, when positive, stamps submissions that carry no
	// explicit timeout with an absolute deadline this far out.
	JobTimeout time.Duration
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (c FrontDoorConfig) maxActive() int {
	if c.MaxActivePerTenant > 0 {
		return c.MaxActivePerTenant
	}
	return 4
}

func (c FrontDoorConfig) ratePerMinute() int {
	if c.RatePerMinute > 0 {
		return c.RatePerMinute
	}
	return 120
}

func (c FrontDoorConfig) burst() int {
	if c.Burst > 0 {
		return c.Burst
	}
	if b := c.ratePerMinute() / 10; b > 4 {
		return b
	}
	return 4
}

// bucket is one tenant's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// FrontDoor serves the cluster API over a store.
type FrontDoor struct {
	store *Store
	cfg   FrontDoorConfig

	mu      sync.Mutex
	buckets map[string]*bucket

	submits, deduped, rejected, streams atomic.Int64
}

// NewFrontDoor builds a front door over store.
func NewFrontDoor(store *Store, cfg FrontDoorConfig) *FrontDoor {
	return &FrontDoor{store: store, cfg: cfg, buckets: make(map[string]*bucket)}
}

func (f *FrontDoor) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// Handler returns flovd's serving API over the store, with flovd's wire
// types (service.JobStatus, service.StreamEvent, service.ErrorBody), so
// the Go client and `flovsweep -server` work unchanged:
//
//	POST /v1/sweeps              submit a spec (202; 429 + Retry-After when throttled)
//	POST /v1/sweeps/run          submit, then stream the feed (a disconnect never cancels)
//	GET  /v1/sweeps/{id}         job status
//	GET  /v1/sweeps/{id}/stream  NDJSON event feed; ?from=N resumes after N lines
//	GET  /v1/sweeps/{id}/results canonical result rows of a finished job
//	GET  /metrics                Prometheus counters
//	GET  /healthz                liveness
func (f *FrontDoor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", f.handleSubmit)
	mux.HandleFunc("POST /v1/sweeps/run", f.handleRun)
	mux.HandleFunc("GET /v1/sweeps/{id}", f.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/stream", f.handleStream)
	mux.HandleFunc("GET /v1/sweeps/{id}/results", f.handleResults)
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, struct {
			Status string `json:"status"`
		}{"ok"})
	})
	return mux
}

// tenant extracts the caller's tenant: the X-Flov-Tenant header, else
// "default". Authentication is out of scope; the quota machinery only
// needs a stable identity per caller.
func tenant(r *http.Request) string {
	if t := strings.TrimSpace(r.Header.Get("X-Flov-Tenant")); t != "" {
		return t
	}
	return "default"
}

// admitRate charges one token from the tenant's bucket. On refusal it
// returns how long until a token is available, which the handler
// surfaces as Retry-After.
func (f *FrontDoor) admitRate(ten string, now time.Time) (time.Duration, error) {
	rate := float64(f.cfg.ratePerMinute()) / 60.0 // tokens per second
	depth := float64(f.cfg.burst())
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok := f.buckets[ten]
	if !ok {
		b = &bucket{tokens: depth, last: now}
		f.buckets[ten] = b
	}
	b.tokens = math.Min(depth, b.tokens+now.Sub(b.last).Seconds()*rate)
	b.last = now
	if b.tokens < 1 {
		wait := time.Duration((1 - b.tokens) / rate * float64(time.Second))
		return wait, ErrRateLimited
	}
	b.tokens--
	return 0, nil
}

// activeJobs counts a tenant's unfinished jobs (store scan; the store
// is the only state, which is what keeps the front door stateless).
func (f *FrontDoor) activeJobs(ten string) (int, error) {
	ids, err := f.store.List()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, id := range ids {
		if _, done := f.store.Done(id); done {
			continue
		}
		rec, err := f.store.Job(id)
		if err != nil {
			continue
		}
		if rec.Tenant == ten {
			n++
		}
	}
	return n, nil
}

// retryAfterSeconds renders a wait as a whole-second Retry-After value,
// rounding up so clients never retry early (minimum 1).
func retryAfterSeconds(wait time.Duration) string {
	s := int(math.Ceil(wait.Seconds()))
	if s < 1 {
		s = 1
	}
	return strconv.Itoa(s)
}

// admit charges the tenant's rate, reads the spec, checks the quota and
// publishes the job. Throttled submissions (rate or quota) answer 429
// with a Retry-After header, which the service client's bounded-backoff
// retry honors. On refusal admit has answered and ok is false.
func (f *FrontDoor) admit(w http.ResponseWriter, r *http.Request) (rec JobRecord, created, ok bool) {
	ten := tenant(r)
	now := time.Now()
	if wait, err := f.admitRate(ten, now); err != nil {
		f.rejected.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(wait))
		service.WriteError(w, http.StatusTooManyRequests, err.Error())
		return rec, false, false
	}
	points, err := sweep.ReadJobs(r.Body)
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err.Error())
		return rec, false, false
	}
	active, err := f.activeJobs(ten)
	if err != nil {
		service.WriteError(w, http.StatusInternalServerError, err.Error())
		return rec, false, false
	}
	if active >= f.cfg.maxActive() {
		f.rejected.Add(1)
		// A finishing job frees the quota slot; a short fixed hint keeps
		// well-behaved clients from hammering the scan.
		w.Header().Set("Retry-After", "2")
		service.WriteError(w, http.StatusTooManyRequests, ErrQuotaExceeded.Error())
		return rec, false, false
	}

	// One hash of the point list names the job and dedups it.
	h := sweep.PointsHash(points)
	rec = JobRecord{
		ID:          idOf(h),
		SpecHash:    h,
		Tenant:      ten,
		Points:      points,
		SubmittedMS: now.UnixMilli(),
	}
	// The deadline is absolute from admission time: requeues and steals
	// inherit it unchanged, so a job's wall budget never restarts.
	timeout := f.cfg.JobTimeout
	if q := r.URL.Query().Get("timeout_ms"); q != "" {
		// Above maxTimeoutMS the product below overflows a Duration: it
		// would wrap to a deadline in the past, or to a negative
		// timeout that silently sets none.
		ms, err := strconv.ParseInt(q, 10, 64)
		if err != nil || ms < 0 || ms > maxTimeoutMS {
			service.WriteError(w, http.StatusBadRequest,
				fmt.Sprintf("timeout_ms must be an integer in [0, %d]", maxTimeoutMS))
			return rec, false, false
		}
		timeout = time.Duration(ms) * time.Millisecond
	}
	if timeout > 0 {
		rec.DeadlineMS = now.Add(timeout).UnixMilli()
	}

	rec, created, err = f.store.Submit(rec)
	if err != nil {
		service.WriteError(w, http.StatusInternalServerError, err.Error())
		return rec, false, false
	}
	f.submits.Add(1)
	if created {
		f.logf("accepted %s from %s (%d points)", rec.ID, ten, len(rec.Points))
	} else {
		f.deduped.Add(1)
	}
	return rec, created, true
}

// handleSubmit is the fire-and-forget path: admit and answer 202.
func (f *FrontDoor) handleSubmit(w http.ResponseWriter, r *http.Request) {
	rec, created, ok := f.admit(w, r)
	if !ok {
		return
	}
	st := f.status(rec)
	st.Deduped = !created
	service.WriteJSON(w, http.StatusAccepted, st)
}

// handleRun admits, then streams the job's feed from its first line.
// Front-door jobs are durable: closing the connection never cancels
// one, and a client may resume with /stream?from=N.
func (f *FrontDoor) handleRun(w http.ResponseWriter, r *http.Request) {
	if rec, _, ok := f.admit(w, r); ok {
		f.stream(w, r, rec, 0)
	}
}

// status derives a job's externally visible status from the store.
func (f *FrontDoor) status(rec JobRecord) service.JobStatus {
	st := service.JobStatus{
		ID:         rec.ID,
		Tenant:     rec.Tenant,
		Points:     len(rec.Points),
		DeadlineMS: rec.DeadlineMS,
	}
	if done, ok := f.store.Done(rec.ID); ok {
		st.State = done.State
		st.Done = len(rec.Points)
		st.Errors = done.Errors
		st.Err = done.Reason
		st.WallMS = float64(done.FinishedMS - rec.SubmittedMS)
		return st
	}
	st.State = f.store.JobState(rec.ID)
	if rows, err := f.store.Rows(rec.ID, rec.Points); err == nil {
		st.Done = len(rows)
	}
	return st
}

func (f *FrontDoor) handleStatus(w http.ResponseWriter, r *http.Request) {
	rec, err := f.store.Job(r.PathValue("id"))
	if err != nil {
		service.WriteError(w, http.StatusNotFound, "unknown job")
		return
	}
	service.WriteJSON(w, http.StatusOK, f.status(rec))
}

// streamPoll is how often a live stream re-reads the feed while waiting
// for new lines.
const streamPoll = 150 * time.Millisecond

func (f *FrontDoor) handleStream(w http.ResponseWriter, r *http.Request) {
	rec, err := f.store.Job(r.PathValue("id"))
	if err != nil {
		service.WriteError(w, http.StatusNotFound, "unknown job")
		return
	}
	from, err := service.StreamFrom(r)
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	f.stream(w, r, rec, from)
}

// unreadableLine stands in for a feed line that is not JSON (a crashed
// writer's fragment), so line offsets stay the same and clients never
// see the fragment.
var unreadableLine = []byte(`{"type":"unreadable"}`)

// stream replays a job's event feed as NDJSON from line from onward and
// follows it live until the job is done, then ends with the summary
// built from the done marker (the feed itself holds none). A client
// that counted its received lines resumes exactly where its previous
// connection (possibly to a different front door) dropped.
func (f *FrontDoor) stream(w http.ResponseWriter, r *http.Request, rec JobRecord, from int) {
	f.streams.Add(1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	write := func(line []byte) bool {
		_, err := w.Write(append(line, '\n'))
		return err == nil // false: client gone
	}
	flush()
	for {
		// The marker is read before the feed: workers append every line
		// before MarkDone, so a feed read after a seen marker is whole.
		done, finished := f.store.Done(rec.ID)
		lines, err := f.store.Events(rec.ID, from)
		if err != nil {
			return
		}
		for _, line := range lines {
			if !json.Valid(line) {
				line = unreadableLine
			}
			if !write(line) {
				return
			}
			from++
		}
		if finished {
			if line, err := json.Marshal(summaryEvent(rec, done)); err == nil {
				write(line) // the handler's return flushes it
			}
			return
		}
		if len(lines) > 0 {
			flush() // once per read of the feed, after the batch it returned
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(streamPoll):
		}
	}
}

// summaryEvent renders a finished job's terminal stream line from its
// done marker.
func summaryEvent(rec JobRecord, done DoneRecord) service.StreamEvent {
	return service.StreamEvent{Type: service.EventSummary, ID: rec.ID,
		State: done.State, Err: done.Reason, Stats: &sweep.Stats{
			Jobs:   len(rec.Points),
			Errors: done.Errors,
			Wall:   time.Duration(done.FinishedMS-rec.SubmittedMS) * time.Millisecond,
		}}
}

// handleResults serves the canonical results file raw — the same bytes
// every worker computed, byte-identical to a single-node run.
func (f *FrontDoor) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := f.store.Job(id); err != nil {
		service.WriteError(w, http.StatusNotFound, "unknown job")
		return
	}
	data, ok := f.store.Results(id)
	if !ok {
		service.WriteError(w, http.StatusConflict, "job not finished: "+f.store.JobState(id))
		return
	}
	if done, ok := f.store.Done(id); ok && done.State == service.StateCanceled {
		service.WriteError(w, http.StatusGone, "job canceled: "+done.Reason)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

func (f *FrontDoor) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("flov_cluster_submits_total", "Accepted job submissions.", f.submits.Load())
	counter("flov_cluster_deduped_total", "Submissions coinciding with an existing job.", f.deduped.Load())
	counter("flov_cluster_rejected_total", "Submissions refused by rate limit or quota.", f.rejected.Load())
	counter("flov_cluster_streams_total", "Event stream requests served.", f.streams.Load())
	states := map[string]int{}
	if ids, err := f.store.List(); err == nil {
		for _, id := range ids {
			states[f.store.JobState(id)]++
		}
	}
	fmt.Fprintf(&b, "# HELP flov_cluster_jobs Jobs in the store by state.\n# TYPE flov_cluster_jobs gauge\n")
	for _, st := range []string{service.StateQueued, service.StateRunning, service.StateDone, service.StateCanceled} {
		fmt.Fprintf(&b, "flov_cluster_jobs{state=%q} %d\n", st, states[st])
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = io.WriteString(w, b.String())
}
