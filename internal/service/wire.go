package service

import (
	"time"

	"flov/internal/sweep"
)

// Job lifecycle states as reported by the API.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateCanceled = "canceled"
)

// Stream event types, in the order a stream emits them. A single-node
// daemon runs each job to completion: one "accepted", then one "point"
// line per point as workers progress — a point that simulates is
// preceded by its "start" line, a cache hit is its "point" line alone;
// lines of points on different workers interleave — then a single
// terminal "summary". A cluster front door's feed replaces "start" with
// a "claimed" line per lease epoch, or "stolen" when the epoch was
// adopted from a different, lapsed worker; a worker that preempts the
// job at a slice boundary writes a "preempted" line before releasing its
// lease; a raced steal may repeat a point line with an identical row.
const (
	EventAccepted  = "accepted"
	EventStart     = "start"
	EventPoint     = "point"
	EventSummary   = "summary"
	EventPreempted = "preempted"
	EventClaimed   = "claimed"
	EventStolen    = "stolen"
)

// Point statuses on "point" events.
const (
	PointDone   = "done"
	PointCached = "cached"
	PointError  = "error"
)

// StreamEvent is one NDJSON line of a job stream: progress and per-point
// results as they complete, terminated by a summary.
type StreamEvent struct {
	Type string `json:"type"`

	// Point progress (start/point events).
	Index     int     `json:"index,omitempty"`
	Total     int     `json:"total,omitempty"`
	Desc      string  `json:"desc,omitempty"`
	Status    string  `json:"status,omitempty"`  // done|cached|error
	WallMS    float64 `json:"wall_ms,omitempty"` // point execution time
	SimCycles int64   `json:"sim_cycles,omitempty"`
	Err       string  `json:"err,omitempty"`

	// Result is the finished row for point events.
	Result *sweep.Result `json:"result,omitempty"`

	// Terminal summary (and the initial accepted event's job identity).
	ID    string       `json:"id,omitempty"`
	State string       `json:"state,omitempty"`
	Stats *sweep.Stats `json:"stats,omitempty"`

	// Remaining is the number of unfinished points on claimed, stolen
	// and preempted events (the rest are already durable in the job's
	// result set).
	Remaining int `json:"remaining,omitempty"`

	// Worker and Epoch name the cluster worker and lease epoch that
	// wrote the line (empty on a single-node stream).
	Worker string `json:"worker,omitempty"`
	Epoch  int    `json:"epoch,omitempty"`
}

// JobStatus is the poll/submit response body.
type JobStatus struct {
	ID        string  `json:"id"`
	State     string  `json:"state"`
	Points    int     `json:"points"`
	Done      int     `json:"done"`
	CacheHits int     `json:"cache_hits"`
	Errors    int     `json:"errors"`
	WallMS    float64 `json:"wall_ms,omitempty"`
	Err       string  `json:"err,omitempty"`
	// Deduped marks a submission that attached to an already in-flight
	// identical job instead of enqueueing a new one.
	Deduped bool `json:"deduped,omitempty"`
	// Tenant is the submitting tenant and DeadlineMS the absolute
	// deadline (unix ms; 0 = none) of a cluster front-door job.
	Tenant     string `json:"tenant,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
}

// ErrorBody is the JSON error payload for non-2xx API responses.
type ErrorBody struct {
	Error string `json:"error"`
}

// EngineEvent renders one engine progress event as its stream line.
// ok is false for events no stream carries: cache write failures and
// per-point pauses (the job-level "preempted" line covers those).
func EngineEvent(ev sweep.Event) (e StreamEvent, ok bool) {
	e = StreamEvent{
		Index:     ev.Index,
		Total:     ev.Total,
		Desc:      ev.Job.Desc(),
		WallMS:    float64(ev.Wall) / float64(time.Millisecond),
		SimCycles: ev.SimCycles,
		Result:    ev.Result,
	}
	switch ev.Type {
	case sweep.JobStart:
		e.Type = EventStart
		e.WallMS = 0
	case sweep.JobDone:
		e.Type, e.Status = EventPoint, PointDone
	case sweep.JobCacheHit:
		e.Type, e.Status = EventPoint, PointCached
	case sweep.JobError:
		e.Type, e.Status, e.Err = EventPoint, PointError, ev.Err
	default:
		return StreamEvent{}, false
	}
	return e, true
}
