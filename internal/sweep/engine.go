package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Engine fans a job list out across a worker pool. The zero value is
// usable: GOMAXPROCS workers, no cache, no progress observer.
type Engine struct {
	// Workers caps pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Cache, when non-nil, memoizes successful results on disk.
	Cache *Cache
	// Progress, when non-nil, receives per-job lifecycle events. The
	// observer is called from worker goroutines and must be safe for
	// concurrent use (Reporter is).
	Progress Progress

	// RunJob, when non-nil, substitutes the job runner (tests use it
	// for panic injection and timing control; the serving layer's tests
	// use it to block points on demand). Nil means the point runner
	// behind Job.Run, with the engine's Pause and Snapshots.
	RunJob func(Job) Result

	// Pause, when non-nil, makes execution preemptible: workers poll it
	// between simulation quanta and, when it reports true, checkpoint the
	// running job and return a Paused result instead of finishing. Jobs
	// not yet started when Pause turns true return Paused with a nil
	// Snapshot (nothing simulated yet). Must be safe for concurrent use.
	Pause func() bool

	// Snapshots, when non-nil, must be index-aligned with the job list
	// passed to Run: a non-nil element resumes that job from the
	// checkpoint instead of starting cold (the snapshot of an earlier
	// Paused result for the same job).
	Snapshots [][]byte

	// Hashes, when non-nil, must be index-aligned with the job list
	// passed to Run: element i is jobs[i].Hash(), the key the engine
	// reads and fills the Cache under. Callers that already hashed the
	// points (the serving layer does at admission, see HashPoints) pass
	// them so no point is hashed twice; nil means the engine hashes each
	// job itself.
	Hashes []string
}

// Run executes jobs and returns one Result per job, in job order,
// regardless of completion order. A job that fails — returns an error,
// or panics inside the simulator — yields an error-carrying Result
// without disturbing its siblings. When ctx is cancelled, jobs not yet
// started return a "canceled" Result; jobs already running complete
// normally unless Pause preempts them.
func (e *Engine) Run(ctx context.Context, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	for i, j := range jobs {
		results[i] = Result{Job: j, Err: context.Canceled.Error()}
	}

	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		return results
	}

	indices := make(chan int)
	go func() {
		defer close(indices)
		for i := range jobs {
			select {
			case indices <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				e.one(i, len(jobs), jobs[i], &results[i])
			}
		}()
	}
	wg.Wait()
	return results
}

// one runs a single job into its slot of Run's result slice: cache
// lookup, guarded execution, cache fill, progress events. A cache hit
// emits only its JobCacheHit event; a JobStart precedes only a job that
// is about to simulate. A row event's Result points at slot itself, so
// every row exists once, and slot is never written after its event has
// gone out (an observer may be reading it from another goroutine).
func (e *Engine) one(index, total int, j Job, slot *Result) {
	var snap []byte
	if e.Snapshots != nil {
		snap = e.Snapshots[index]
	}
	if e.Pause != nil && snap == nil && e.Pause() {
		// Preemption requested before this job simulated anything: yield
		// it whole (nil snapshot means "start cold next time") without
		// burning a quantum on it first.
		*slot = Result{Job: j, Paused: true}
		return
	}

	var hash string
	if e.Cache != nil {
		if e.Hashes != nil {
			hash = e.Hashes[index]
		} else {
			hash = j.Hash()
		}
		if r, ok := e.Cache.get(hash); ok {
			*slot = r
			slot.CacheHit = true
			e.emit(Event{Type: JobCacheHit, Index: index, Total: total, Job: j,
				Wall: slot.Wall, SimCycles: slot.SimCycles(), Result: slot})
			return
		}
	}

	e.emit(Event{Type: JobStart, Index: index, Total: total, Job: j})
	*slot = e.guardedRun(j, snap)

	if slot.Paused {
		e.emit(Event{Type: JobPaused, Index: index, Total: total, Job: j, Wall: slot.Wall})
		return
	}

	if slot.Err == "" && e.Cache != nil {
		// Cache fills are best-effort: a full disk must not fail the sweep.
		if err := e.Cache.put(hash, *slot); err != nil {
			e.emit(Event{Type: CacheWriteError, Index: index, Total: total, Job: j, Err: err.Error()})
		}
	}

	ev := Event{Type: JobDone, Index: index, Total: total, Job: j,
		Wall: slot.Wall, SimCycles: slot.SimCycles(), Result: slot}
	if slot.Err != "" {
		ev.Type = JobError
		ev.Err = slot.Err
	}
	e.emit(ev)
}

// guardedRun executes the job with panic isolation: a crashing point
// reports an error instead of killing the sweep. The full stack is
// preserved unbounded (debug.Stack) so deep simulator frames survive
// into the error row.
func (e *Engine) guardedRun(j Job, snap []byte) (r Result) {
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			r = Result{
				Job:  j,
				Err:  fmt.Sprintf("panic: %v\n%s", p, debug.Stack()),
				Wall: time.Since(start),
			}
		}
	}()
	if e.RunJob != nil {
		return e.RunJob(j)
	}
	r = j.run(snap, e.Pause)
	r.Wall = time.Since(start)
	return r
}

func (e *Engine) emit(ev Event) {
	if e.Progress != nil {
		e.Progress.Event(ev)
	}
}

// Stats aggregates a finished sweep for reporting.
type Stats struct {
	Jobs      int
	CacheHits int
	Errors    int
	// SimCycles totals simulated cycles across all points.
	SimCycles int64
	// WorkWall sums per-job wall time (CPU-side work, all workers).
	WorkWall time.Duration
	// Wall is the end-to-end elapsed time the caller measured.
	Wall time.Duration
}

// Summarize folds a result list (plus the caller-measured elapsed time)
// into Stats.
func Summarize(results []Result, wall time.Duration) Stats {
	s := Stats{Jobs: len(results), Wall: wall}
	for _, r := range results {
		if r.CacheHit {
			s.CacheHits++
		}
		if r.Err != "" {
			s.Errors++
		}
		s.SimCycles += r.SimCycles()
		s.WorkWall += r.Wall
	}
	return s
}

// String renders the stats as a one-line summary.
func (s Stats) String() string {
	line := fmt.Sprintf("%d jobs (%d cached, %d failed) in %v",
		s.Jobs, s.CacheHits, s.Errors, s.Wall.Round(time.Millisecond))
	if s.Wall > 0 && s.SimCycles > 0 {
		line += fmt.Sprintf(", %.1f Mcycles simulated (%.1f Mcyc/s)",
			float64(s.SimCycles)/1e6, float64(s.SimCycles)/1e6/s.Wall.Seconds())
	}
	return line
}
