package service

import (
	"encoding/json"
	"net/http"

	"flov/internal/opt"
	"flov/internal/sweep"
)

// OptStreamLine is one NDJSON line of the POST /v1/opt/run stream:
// "generation" lines carry per-round progress, a final "done" line
// carries the full outcome (Pareto front included), and an "error"
// line reports a search that failed after streaming began.
type OptStreamLine struct {
	Type    string       `json:"type"`
	Event   *opt.Event   `json:"event,omitempty"`
	Outcome *opt.Outcome `json:"outcome,omitempty"`
	Error   string       `json:"error,omitempty"`
}

// handleOptRun runs a design-space search synchronously, streaming one
// NDJSON line per finished generation and a final outcome line. The
// search executes through the daemon's sweep engine configuration, so
// candidate evaluations share the result cache with sweep jobs. Closing
// the connection cancels the search via the request context.
func (s *Server) handleOptRun(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		WriteError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	data, err := sweep.ReadSpecBody(r.Body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec, err := opt.ParseSpec(data)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}

	// The response commits on the first generation event; spec-level
	// errors (bad space, unknown strategy) surface before any event
	// fires and still get a clean 400.
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	started := false
	emit := func(line OptStreamLine) {
		if !started {
			started = true
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		// A failed write means the client went away; the request context
		// then cancels the search.
		_ = enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}

	s.metrics.optRuns.Add(1)
	outcome, err := opt.Run(r.Context(), spec, opt.Options{
		Workers: s.cfg.Workers,
		Cache:   s.cfg.Cache,
		Progress: func(ev opt.Event) {
			s.metrics.optGenerations.Add(1)
			s.metrics.optEvaluations.Add(int64(ev.Simulated + ev.Reused))
			s.log("opt gen %d/%d: %d simulated, front=%d", ev.Gen+1, ev.Generations, ev.Simulated, ev.Front)
			line := ev
			emit(OptStreamLine{Type: "generation", Event: &line})
		},
	})
	if err != nil {
		s.metrics.optFailed.Add(1)
		if !started {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		emit(OptStreamLine{Type: "error", Error: err.Error()})
		return
	}
	s.log("opt done: %d generations, %d simulated, front=%d",
		outcome.Generations, outcome.Simulated, len(outcome.Front))
	emit(OptStreamLine{Type: "done", Outcome: &outcome})
}
