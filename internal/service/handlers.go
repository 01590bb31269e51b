package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"time"

	"flov/internal/sweep"
)

// Handler returns the daemon's HTTP API:
//
//	POST /v1/sweeps            submit a spec, return immediately (202)
//	POST /v1/sweeps/run        submit a spec and stream NDJSON until done
//	POST /v1/opt/run           run a design-space search, stream generations
//	GET  /v1/sweeps/{id}       job status
//	GET  /v1/sweeps/{id}/stream  NDJSON replay + live follow of a job
//	GET  /v1/sweeps/{id}/results result rows of a finished job
//	GET  /metrics              Prometheus counters and histograms
//	GET  /debug/events         tail of the service event ring
//	GET  /healthz              liveness (503 while draining)
//
// Every route runs behind a panic-isolating middleware: a crashing
// handler answers 500 (when headers are still writable) and the daemon
// keeps serving.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("POST /v1/sweeps/run", s.handleRun)
	mux.HandleFunc("POST /v1/opt/run", s.handleOptRun)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleResults)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.recoverPanics(mux)
}

// recoverPanics is the outermost middleware: handler panics become 500s
// and a ring event instead of a dead daemon.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.metrics.panics.Add(1)
				buf := make([]byte, 4096)
				buf = buf[:runtime.Stack(buf, false)]
				s.log("handler panic on %s %s: %v", r.Method, r.URL.Path, p)
				s.log("%s", firstLines(string(buf), 6))
				// Headers may already be gone on a streaming route; the
				// write error is then the client's signal.
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// firstLines truncates s to its first n lines (panic stacks on the ring).
func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The response is committed; an encode error here means the client
	// went away, which the next read on that connection reports anyway.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorBody{Error: msg})
}

// submitStatus maps a submission error to its HTTP status.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// writeSubmitError answers a failed admission. Throttled submissions
// (429, queue full) carry a Retry-After hint — a queue slot frees as
// soon as any running job finishes, so a short whole-second wait is the
// honest signal — which the service client's bounded-backoff retry
// honors.
func writeSubmitError(w http.ResponseWriter, err error) {
	status := submitStatus(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, status, err.Error())
}

// handleSubmit is the fire-and-forget path: admit and answer 202 with
// the job id; the job runs to completion server-side.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	points, err := sweep.ReadJobs(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	j, deduped, err := s.submit(points, true)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	st := j.status()
	st.Deduped = deduped
	writeJSON(w, http.StatusAccepted, st)
}

// handleRun is the interactive path: admit, then stream the job's feed
// as NDJSON until the summary. Closing the connection before completion
// drops this submitter's reference; when no other submitter or owner
// remains, the job cancels and its queue slot frees.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	points, err := sweep.ReadJobs(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	j, _, err := s.submit(points, false)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	defer s.release(j)
	s.streamFeed(w, r, j)
}

// handleStream replays and follows an existing job's feed. Watchers
// hold no reference: disconnecting a watcher never cancels the job.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	s.streamFeed(w, r, j)
}

// streamFeed writes the feed as NDJSON, flushing per event so progress
// is visible while points are still simulating.
func (s *Server) streamFeed(w http.ResponseWriter, r *http.Request, j *job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	for i := 0; ; i++ {
		ev, ok, err := j.feed.next(r.Context(), i)
		if err != nil || !ok {
			return // client gone, or feed complete
		}
		if err := enc.Encode(ev); err != nil {
			return // connection lost mid-stream
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	j.mu.Lock()
	state := j.state
	results := j.results
	j.mu.Unlock()
	switch state {
	case StateDone:
		writeJSON(w, http.StatusOK, results)
	case StateCanceled:
		writeError(w, http.StatusGone, "job canceled: "+j.status().Err)
	default:
		writeError(w, http.StatusConflict, "job not finished: "+state)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	depth, running, draining := len(s.queued), s.running, s.draining
	s.mu.Unlock()
	var b strings.Builder
	s.metrics.render(&b, depth, running, draining, s.cfg.Cache)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	// Committed response: a failed write means the scraper disconnected.
	_, _ = io.WriteString(w, b.String())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, "n must be a positive integer")
			return
		}
		n = v
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var b strings.Builder
	for _, e := range s.events.Tail(n) {
		// The ring's cycle slot carries unix milliseconds here.
		fmt.Fprintf(&b, "%s  %s\n", time.UnixMilli(e.Cycle).UTC().Format("2006-01-02T15:04:05.000Z"), e.Note)
	}
	_, _ = io.WriteString(w, b.String())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}
