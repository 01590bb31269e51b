package sweep

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// EventType classifies a progress event.
type EventType int

// Progress event types.
const (
	// JobStart fires when a worker is about to simulate a job: after a
	// cache miss, never for a cache hit (whose only event is
	// JobCacheHit).
	JobStart EventType = iota
	// JobDone fires when a job simulated to completion.
	JobDone
	// JobCacheHit fires when a job was served from the result cache.
	JobCacheHit
	// JobError fires when a job failed (simulator error or panic).
	JobError
	// CacheWriteError fires when a finished result could not be cached;
	// the sweep continues.
	CacheWriteError
	// JobPaused fires when a resumable job checkpointed and yielded to a
	// preemption request instead of finishing; the caller holds its
	// snapshot and will re-run it later.
	JobPaused
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case JobStart:
		return "start"
	case JobDone:
		return "done"
	case JobCacheHit:
		return "cached"
	case JobError:
		return "error"
	case CacheWriteError:
		return "cache-write-error"
	case JobPaused:
		return "paused"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// Event is one job-lifecycle notification.
type Event struct {
	Type  EventType
	Index int // job position in the sweep (result order)
	Total int // sweep size
	Job   Job
	// Wall is the job's execution time (JobDone/JobError) or the
	// original simulation time of the cached entry (JobCacheHit).
	Wall time.Duration
	// SimCycles is the number of cycles the point simulated.
	SimCycles int64
	// Err carries the failure message for JobError/CacheWriteError.
	Err string
	// Result is the finished row for JobDone/JobCacheHit/JobError
	// events (nil for JobStart/CacheWriteError/JobPaused). It points at
	// the row's own slot in the slice Run returns, not at a copy, so
	// observers must not modify it; they may keep the pointer, and the
	// engine never writes the slot again. Observers that stream rows as
	// they complete read it; the terminal Reporter ignores it.
	Result *Result
}

// Progress observes sweep execution. Implementations are called
// concurrently from worker goroutines.
type Progress interface {
	Event(Event)
}

// Reporter is a terminal Progress implementation: one line per finished
// job with wall time and simulated-cycle throughput, plus running
// done/total and cache-hit counts. Safe for concurrent use.
type Reporter struct {
	mu     sync.Mutex
	w      io.Writer
	start  time.Time
	done   int
	hits   int
	errs   int
	cycles int64
}

// NewReporter returns a Reporter writing to w.
func NewReporter(w io.Writer) *Reporter {
	return &Reporter{w: w, start: time.Now()}
}

// Event implements Progress.
func (r *Reporter) Event(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch e.Type {
	case JobStart:
		return // line per completion keeps output bounded
	case CacheWriteError:
		// Progress lines are best effort; a broken ticker pipe must not
		// kill the sweep that is feeding it.
		_, _ = fmt.Fprintf(r.w, "sweep: cache write failed for %s: %s\n", e.Job.Desc(), e.Err)
		return
	case JobPaused:
		// A paused job is not done — it re-runs from its checkpoint — so
		// it must not advance the done counter.
		_, _ = fmt.Fprintf(r.w, "sweep: %s paused at cycle boundary (will resume)\n", e.Job.Desc())
		return
	case JobCacheHit:
		r.hits++
	case JobError:
		r.errs++
	case JobDone:
		// Counts only toward the completion line below.
	}
	r.done++
	r.cycles += e.SimCycles

	elapsed := time.Since(r.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(r.cycles) / 1e6 / elapsed
	}
	switch e.Type {
	case JobError:
		_, _ = fmt.Fprintf(r.w, "[%*d/%d] %-40s ERROR: %s\n",
			width(e.Total), r.done, e.Total, e.Job.Desc(), firstLine(e.Err))
	case JobCacheHit:
		_, _ = fmt.Fprintf(r.w, "[%*d/%d] %-40s cached\n",
			width(e.Total), r.done, e.Total, e.Job.Desc())
	default:
		_, _ = fmt.Fprintf(r.w, "[%*d/%d] %-40s %6.2fs  %7.1f Mcyc/s\n",
			width(e.Total), r.done, e.Total, e.Job.Desc(),
			e.Wall.Seconds(), rate)
	}
}

// width returns the print width of total, to keep columns aligned.
func width(total int) int { return len(fmt.Sprint(total)) }

// firstLine truncates multi-line errors (panic stacks) for the ticker.
func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
