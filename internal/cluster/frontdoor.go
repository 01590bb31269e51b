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

	"flov/internal/sweep"
)

// Front door: the cluster's stateless serving layer. All job state
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

// JobStatus is the front door's poll/submit response body.
type JobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"` // queued | running | done | canceled
	Tenant string `json:"tenant,omitempty"`
	Points int    `json:"points"`
	// Done counts durable rows (points that will not re-simulate).
	Done   int    `json:"done"`
	Errors int    `json:"errors,omitempty"`
	Err    string `json:"err,omitempty"`
	// Deduped marks a submission that coincided with an existing
	// identical job (content-addressed ids make this exact).
	Deduped bool `json:"deduped,omitempty"`
	// DeadlineMS is the job's absolute deadline (unix ms; 0 = none).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// errorBody is the JSON error payload, wire-compatible with the
// single-node daemon's.
type errorBody struct {
	Error string `json:"error"`
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

// Handler returns the cluster API:
//
//	POST /v1/cluster/jobs              submit a spec (202; 429 + Retry-After when throttled)
//	GET  /v1/cluster/jobs/{id}         job status
//	GET  /v1/cluster/jobs/{id}/stream  NDJSON event feed; ?from=N resumes after N lines
//	GET  /v1/cluster/jobs/{id}/results canonical result rows of a finished job
//	GET  /metrics                      Prometheus counters
//	GET  /healthz                      liveness
func (f *FrontDoor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/jobs", f.handleSubmit)
	mux.HandleFunc("GET /v1/cluster/jobs/{id}", f.handleStatus)
	mux.HandleFunc("GET /v1/cluster/jobs/{id}/stream", f.handleStream)
	mux.HandleFunc("GET /v1/cluster/jobs/{id}/results", f.handleResults)
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Status string `json:"status"`
		}{"ok"})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Committed response: an encode error means the client went away.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
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

// handleSubmit admits a spec into the store. Throttled submissions
// (rate or quota) answer 429 with a Retry-After header; the service
// client's bounded-backoff retry honors it.
func (f *FrontDoor) handleSubmit(w http.ResponseWriter, r *http.Request) {
	ten := tenant(r)
	now := time.Now()
	if wait, err := f.admitRate(ten, now); err != nil {
		f.rejected.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(wait))
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	}
	points, err := sweep.ReadJobs(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	active, err := f.activeJobs(ten)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if active >= f.cfg.maxActive() {
		f.rejected.Add(1)
		// A finishing job frees the quota slot; a short fixed hint keeps
		// well-behaved clients from hammering the scan.
		w.Header().Set("Retry-After", "2")
		writeError(w, http.StatusTooManyRequests, ErrQuotaExceeded.Error())
		return
	}

	rec := JobRecord{
		ID:          JobID(points),
		Tenant:      ten,
		Points:      points,
		SubmittedMS: now.UnixMilli(),
	}
	// The deadline is absolute from admission time: requeues and steals
	// inherit it unchanged, so a job's wall budget never restarts.
	timeout := f.cfg.JobTimeout
	if q := r.URL.Query().Get("timeout_ms"); q != "" {
		ms, err := strconv.ParseInt(q, 10, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, "timeout_ms must be a non-negative integer")
			return
		}
		timeout = time.Duration(ms) * time.Millisecond
	}
	if timeout > 0 {
		rec.DeadlineMS = now.Add(timeout).UnixMilli()
	}

	stored, created, err := f.store.Submit(rec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	f.submits.Add(1)
	if created {
		line, err := json.Marshal(Event{Type: EventAccepted, Job: stored.ID,
			Total: len(stored.Points)})
		if err == nil {
			if aerr := f.store.AppendEvent(stored.ID, line); aerr != nil {
				f.logf("event append failed for %s: %v", stored.ID, aerr)
			}
		}
		f.logf("accepted %s from %s (%d points)", stored.ID, ten, len(stored.Points))
	} else {
		f.deduped.Add(1)
	}
	st := f.status(stored)
	st.Deduped = !created
	writeJSON(w, http.StatusAccepted, st)
}

// status derives a job's externally visible status from the store.
func (f *FrontDoor) status(rec JobRecord) JobStatus {
	st := JobStatus{
		ID:         rec.ID,
		Tenant:     rec.Tenant,
		Points:     len(rec.Points),
		State:      f.store.JobState(rec.ID),
		DeadlineMS: rec.DeadlineMS,
	}
	if done, ok := f.store.Done(rec.ID); ok {
		st.Done = len(rec.Points)
		st.Errors = done.Errors
		st.Err = done.Reason
		return st
	}
	if rows, err := f.store.Rows(rec.ID, rec.Points); err == nil {
		st.Done = len(rows)
	}
	return st
}

func (f *FrontDoor) handleStatus(w http.ResponseWriter, r *http.Request) {
	rec, err := f.store.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, f.status(rec))
}

// streamPoll is how often a live stream re-reads the feed while waiting
// for new lines.
const streamPoll = 150 * time.Millisecond

// handleStream replays a job's event feed as NDJSON and follows it live
// until the terminal summary. ?from=N skips the first N lines: a client
// that counted its received lines resumes exactly where its previous
// connection (possibly to a different front door) dropped.
func (f *FrontDoor) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := f.store.Job(id); err != nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, "from must be a non-negative integer")
			return
		}
		from = v
	}
	f.streams.Add(1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	for {
		lines, err := f.store.Events(id, from)
		if err != nil {
			return
		}
		for _, line := range lines {
			if _, err := w.Write(append(line, '\n')); err != nil {
				return // client gone
			}
			from++
			if flusher != nil {
				flusher.Flush()
			}
			var ev struct {
				Type string `json:"type"`
			}
			if json.Unmarshal(line, &ev) == nil && ev.Type == EventSummary {
				return
			}
		}
		// The done marker without a summary line means a worker died
		// between them; end the stream rather than following forever.
		if _, done := f.store.Done(id); done && len(lines) == 0 {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(streamPoll):
		}
	}
}

// handleResults serves the canonical results file raw — the same bytes
// every worker computed, byte-identical to a single-node run.
func (f *FrontDoor) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := f.store.Job(id); err != nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	data, ok := f.store.Results(id)
	if !ok {
		writeError(w, http.StatusConflict, "job not finished: "+f.store.JobState(id))
		return
	}
	if done, ok := f.store.Done(id); ok && done.State == StateCanceled {
		writeError(w, http.StatusGone, "job canceled: "+done.Reason)
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
	for _, st := range []string{"queued", "running", StateDone, StateCanceled} {
		fmt.Fprintf(&b, "flov_cluster_jobs{state=%q} %d\n", st, states[st])
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = io.WriteString(w, b.String())
}
