// Package service is flovd's serving layer: a bounded job queue with
// admission control and in-flight dedup, runner goroutines that execute
// sweep specs through the existing sweep.Engine (sharing its on-disk
// result cache), per-job NDJSON event streams, and an observability
// surface (/metrics counters and histograms, /debug/events ring).
//
// The layering is strict: the simulator core knows nothing about the
// service, and the service knows nothing about routers — it only speaks
// sweep.Spec in and sweep.Result out. Everything wall-clock lives here
// and in cmd/; simulation packages stay on cycle time (flovlint pins
// that).
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flov/internal/nlog"
	"flov/internal/sweep"
)

// Config parameterizes a Server. The zero value is usable: defaults are
// filled in by New.
type Config struct {
	// QueueDepth bounds jobs admitted but not yet running; submissions
	// beyond it are rejected with 429 rather than buffered without
	// bound. Default 16.
	QueueDepth int
	// Runners is the number of concurrently executing jobs. Points
	// within a job already fan out across Workers, so the default of 1
	// keeps a single job's latency minimal; raise it when jobs are
	// small and arrival rate is high.
	Runners int
	// Workers is the sweep.Engine pool size per job (<= 0 means
	// GOMAXPROCS).
	Workers int
	// JobTimeout bounds one job's wall-clock lifetime from admission;
	// 0 means no limit. The deadline is absolute — preemption and
	// requeueing do not restart it — and on expiry the engine's context
	// path cancels unstarted points and the job reports canceled.
	JobTimeout time.Duration
	// JobSlice, when positive, makes execution preemptible: a job that
	// runs longer than one slice is checkpointed (points in flight
	// snapshot their simulation state), requeued behind waiting jobs,
	// and later resumed exactly where it stopped. Long sweeps stop
	// monopolizing the runner pool while short jobs wait. 0 disables
	// time-slicing.
	JobSlice time.Duration
	// RetainJobs is how many finished jobs stay queryable (status,
	// results, stream replay) before eviction, oldest first. Default 64.
	RetainJobs int
	// Cache, when non-nil, is the shared content-addressed result
	// store; resubmitted specs are answered from it without simulation.
	Cache *sweep.Cache
	// EventLog capacity for the /debug/events ring. Default 512.
	EventLogSize int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool

	// runPoint substitutes the per-point runner (tests block points on
	// demand to observe streaming and cancellation mid-flight).
	runPoint func(sweep.Job) sweep.Result
	// slice substitutes the JobSlice timer: it starts one slice and
	// returns the poll the engine makes between simulation quanta, true
	// once the slice is over. Tests end slices after a set number of
	// polls, so preemption does not hang on how fast the kernel runs.
	slice func() (expired func() bool)
}

// Submission errors mapped to HTTP statuses by the handlers.
var (
	// ErrQueueFull rejects a submission when QueueDepth jobs are
	// already waiting (429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining rejects a submission during graceful shutdown (503).
	ErrDraining = errors.New("service: draining, not admitting jobs")
)

// job is one admitted sweep: the expanded point list, its live event
// feed, and bookkeeping for dedup, cancellation and retention.
type job struct {
	id       string
	specHash string
	points   []sweep.Job
	feed     *feed

	ctx    context.Context
	cancel context.CancelFunc

	// deadline is the job's absolute completion deadline (zero = none),
	// fixed once at admission. Absolute, not a per-slice duration: a
	// preempted job that requeues must not have its clock restarted, or
	// a JobTimeout shorter than the sum of slices would never fire.
	deadline time.Time

	mu        sync.Mutex
	state     string
	owned     bool // a fire-and-forget submission pinned it: never auto-cancel
	refs      int  // attached streaming submitters; 0 + !owned => abandon
	submitted time.Time
	results   []sweep.Result
	stats     sweep.Stats
	done      int // finished points so far
	cacheHits int
	errors    int
	failure   string // job-level failure note (timeout, drain)

	// Preemption bookkeeping: finished rows accumulate across slices
	// (index-aligned with points), snapshots hold the checkpoints of
	// points paused mid-simulation, elapsed sums per-slice wall time.
	finished  []sweep.Result
	havePoint []bool
	snapshots [][]byte
	elapsed   time.Duration
	resumes   int

	doneCh chan struct{} // closed when the job reaches a terminal state
}

// status snapshots the job for the API.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		Points:    len(j.points),
		Done:      j.done,
		CacheHits: j.cacheHits,
		Errors:    j.errors,
		Err:       j.failure,
		Resumes:   j.resumes,
	}
	if j.state == StateDone || j.state == StateCanceled {
		st.WallMS = float64(j.stats.Wall) / float64(time.Millisecond)
	}
	return st
}

// Server owns the queue, the runners and the metrics. Create with New,
// serve via Handler, stop via Drain or Close.
type Server struct {
	cfg Config

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	queued   []*job          // FIFO; admission bounds its length
	running  int             // jobs currently executing
	inflight map[string]*job // spec hash -> queued or running job (dedup)
	jobs     map[string]*job // id -> any retained job
	retained []string        // finished job ids, oldest first (eviction order)
	seq      int64
	stopping bool // runners exit once the queue empties
	draining bool // submissions rejected

	wg      sync.WaitGroup
	metrics metrics
	events  *nlog.Shared
	start   time.Time
}

// New builds a Server and starts its runner pool.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.Runners <= 0 {
		cfg.Runners = 1
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 64
	}
	if cfg.EventLogSize <= 0 {
		cfg.EventLogSize = 512
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		inflight:   make(map[string]*job),
		jobs:       make(map[string]*job),
		events:     nlog.NewShared(cfg.EventLogSize),
		start:      time.Now(),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Runners; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	s.log("flovd up: queue=%d runners=%d workers=%d", cfg.QueueDepth, cfg.Runners, cfg.Workers)
	return s
}

// log records a service event on the debug ring, stamped with unix
// milliseconds in the ring's cycle slot.
func (s *Server) log(format string, args ...any) {
	s.events.Addf(time.Now().UnixMilli(), nlog.KService, -1, format, args...)
}

// submit admits a spec's expanded points. owned marks fire-and-forget
// submissions that must run to completion regardless of client
// lifetime; !owned submissions hold a reference that release() drops.
// Identical in-flight jobs are shared (deduped=true) instead of
// enqueued twice.
func (s *Server) submit(points []sweep.Job, owned bool) (j *job, deduped bool, err error) {
	h := sweep.PointsHash(points)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, ErrDraining
	}
	if twin := s.inflight[h]; twin != nil {
		twin.mu.Lock()
		twin.owned = twin.owned || owned
		if !owned {
			twin.refs++
		}
		twin.mu.Unlock()
		s.metrics.jobsDeduped.Add(1)
		s.log("dedup %s onto %s (%d points)", h[:12], twin.id, len(points))
		return twin, true, nil
	}
	if len(s.queued) >= s.cfg.QueueDepth {
		s.metrics.jobsRejected.Add(1)
		s.log("rejected submission (%d points): queue full at %d", len(points), len(s.queued))
		return nil, false, ErrQueueFull
	}
	s.seq++
	ctx, cancel := context.WithCancel(s.baseCtx)
	refs := 1
	if owned {
		refs = 0
	}
	j = &job{
		id:        fmt.Sprintf("%s-%d", h[:12], s.seq),
		specHash:  h,
		points:    points,
		feed:      newFeed(),
		ctx:       ctx,
		cancel:    cancel,
		state:     StateQueued,
		owned:     owned,
		refs:      refs,
		submitted: time.Now(),
		finished:  make([]sweep.Result, len(points)),
		havePoint: make([]bool, len(points)),
		snapshots: make([][]byte, len(points)),
		doneCh:    make(chan struct{}),
	}
	if s.cfg.JobTimeout > 0 {
		j.deadline = time.Now().Add(s.cfg.JobTimeout)
	}
	j.feed.append(StreamEvent{Type: EventAccepted, ID: j.id, Total: len(points), State: StateQueued})
	s.inflight[h] = j
	s.jobs[j.id] = j
	s.queued = append(s.queued, j)
	s.metrics.jobsAccepted.Add(1)
	s.log("accepted %s: %d points, queue depth %d", j.id, len(points), len(s.queued))
	s.cond.Signal()
	return j, false, nil
}

// release drops a streaming submitter's reference. When the last one
// disconnects from a job nobody owns, the job cancels: a queued job
// leaves the queue immediately (freeing its admission slot), a running
// one stops through the engine's context path.
func (s *Server) release(j *job) {
	j.mu.Lock()
	j.refs--
	abandoned := j.refs <= 0 && !j.owned && (j.state == StateQueued || j.state == StateRunning)
	j.mu.Unlock()
	if abandoned {
		s.cancelJob(j, "abandoned by client")
	}
}

// cancelJob cancels a queued or running job. Queued jobs finalize here;
// running jobs finalize in execute when the engine returns.
func (s *Server) cancelJob(j *job, reason string) {
	j.cancel()
	s.mu.Lock()
	wasQueued := false
	for i, q := range s.queued {
		if q == j {
			s.queued = append(s.queued[:i:i], s.queued[i+1:]...)
			wasQueued = true
			break
		}
	}
	if s.inflight[j.specHash] == j {
		delete(s.inflight, j.specHash)
	}
	s.mu.Unlock()
	if wasQueued {
		s.finalize(j, nil, sweep.Stats{}, StateCanceled, reason)
	}
	s.log("cancel %s: %s", j.id, reason)
}

// runner drains the queue until stopped.
func (s *Server) runner() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		for len(s.queued) == 0 && !s.stopping {
			s.cond.Wait()
		}
		if len(s.queued) == 0 {
			s.mu.Unlock()
			return
		}
		j := s.queued[0]
		s.queued = s.queued[1:]
		s.running++
		s.mu.Unlock()
		s.execute(j)
		s.mu.Lock()
		s.running--
	}
}

// execute runs one slice of a job through the engine. Without a
// JobSlice the slice is the whole job. With one, a slice that expires
// preempts the engine: in-flight points checkpoint their simulation
// state, and the job requeues behind waiting work to resume later; only
// when every point has a durable row does the job finalize.
func (s *Server) execute(j *job) {
	j.mu.Lock()
	if j.state != StateQueued { // canceled while queued, popped anyway
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	resumed := j.resumes > 0
	// Pending points: those without a durable result from earlier slices.
	var idx []int
	for i := range j.points {
		if !j.havePoint[i] {
			idx = append(idx, i)
		}
	}
	pts := make([]sweep.Job, len(idx))
	snaps := make([][]byte, len(idx))
	for k, i := range idx {
		pts[k] = j.points[i]
		snaps[k] = j.snapshots[i]
	}
	j.mu.Unlock()

	if resumed {
		j.feed.append(StreamEvent{Type: EventResumed, ID: j.id, Total: len(j.points), Remaining: len(idx)})
		s.metrics.jobsResumed.Add(1)
		s.log("resume %s (%d of %d points remaining)", j.id, len(idx), len(j.points))
	} else {
		s.log("start %s (%d points)", j.id, len(j.points))
	}

	ctx := j.ctx
	cancel := func() {}
	if !j.deadline.IsZero() {
		// The absolute admission-time deadline, not a fresh JobTimeout:
		// every slice of a preempted job runs against the same clock.
		ctx, cancel = context.WithDeadline(ctx, j.deadline)
	}
	engine := &sweep.Engine{
		Workers:  s.cfg.Workers,
		Cache:    s.cfg.Cache,
		Progress: remapFan{fan: progressFan{s: s, j: j}, idx: idx, total: len(j.points)},
		RunJob:   s.cfg.runPoint,
	}
	if s.cfg.JobSlice > 0 {
		expired, stop := s.startSlice()
		defer stop()
		engine.Pause = expired
		engine.Snapshots = snaps
	}
	start := time.Now()
	results := engine.Run(ctx, pts)
	wall := time.Since(start)
	timedOut := ctx.Err() != nil && j.ctx.Err() == nil
	cancel()

	// Merge this slice's outcomes into the job's durable row set.
	paused := 0
	j.mu.Lock()
	for k, r := range results {
		i := idx[k]
		if r.Paused {
			paused++
			if r.Snapshot != nil {
				j.snapshots[i] = r.Snapshot
			}
			continue
		}
		j.finished[i] = r
		j.havePoint[i] = true
		j.snapshots[i] = nil
	}
	j.elapsed += wall
	elapsed := j.elapsed
	j.mu.Unlock()

	if paused > 0 && !timedOut && j.ctx.Err() == nil {
		// Slice expired mid-job: requeue behind waiting work and yield
		// the runner. The job stays in-flight for dedup purposes.
		j.mu.Lock()
		j.state = StateQueued
		j.resumes++
		j.mu.Unlock()
		j.feed.append(StreamEvent{Type: EventPreempted, ID: j.id, Total: len(j.points), Remaining: paused})
		s.metrics.jobsPreempted.Add(1)
		s.mu.Lock()
		s.queued = append(s.queued, j)
		s.cond.Signal()
		s.mu.Unlock()
		s.log("preempt %s after %v: %d points remaining", j.id, wall.Round(time.Millisecond), paused)
		return
	}

	// Terminal: assemble the full row set in original point order. Points
	// still paused (timeout/cancel hit before they finished) report
	// canceled like never-started points do.
	j.mu.Lock()
	full := make([]sweep.Result, len(j.points))
	for i := range j.points {
		if j.havePoint[i] {
			full[i] = j.finished[i]
		} else {
			full[i] = sweep.Result{Job: j.points[i], Err: context.Canceled.Error()}
		}
	}
	j.mu.Unlock()

	st := sweep.Summarize(full, elapsed)
	state := StateDone
	reason := ""
	switch {
	case timedOut:
		state, reason = StateCanceled, fmt.Sprintf("job timeout %v exceeded", s.cfg.JobTimeout)
	case j.ctx.Err() != nil:
		state, reason = StateCanceled, "canceled"
	}

	s.mu.Lock()
	if s.inflight[j.specHash] == j {
		delete(s.inflight, j.specHash)
	}
	s.mu.Unlock()
	s.finalize(j, full, st, state, reason)
	s.log("finish %s: %s, %s", j.id, state, st)
}

// startSlice starts the clock of one execution slice. It returns the
// engine's preemption poll and a func that stops the clock.
func (s *Server) startSlice() (expired func() bool, stop func()) {
	if s.cfg.slice != nil {
		return s.cfg.slice(), func() {}
	}
	var over atomic.Bool
	timer := time.AfterFunc(s.cfg.JobSlice, func() { over.Store(true) })
	return over.Load, func() { timer.Stop() }
}

// finalize records the terminal state exactly once: results, metrics,
// the summary event, retention.
func (s *Server) finalize(j *job, results []sweep.Result, st sweep.Stats, state, reason string) {
	j.mu.Lock()
	if j.state == StateDone || j.state == StateCanceled {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.results = results
	j.stats = st
	j.failure = reason
	wallMS := time.Since(j.submitted).Milliseconds()
	close(j.doneCh)
	j.mu.Unlock()

	statsCopy := st
	j.feed.append(StreamEvent{Type: EventSummary, ID: j.id, State: state, Err: reason, Stats: &statsCopy})
	j.feed.close()

	s.metrics.jobWallMS.Observe(wallMS)
	switch {
	case state == StateCanceled:
		s.metrics.jobsCanceled.Add(1)
	default:
		s.metrics.jobsCompleted.Add(1)
		if st.Errors > 0 {
			s.metrics.jobsFailed.Add(1)
		}
	}

	s.mu.Lock()
	s.retained = append(s.retained, j.id)
	for len(s.retained) > s.cfg.RetainJobs {
		delete(s.jobs, s.retained[0])
		s.retained = s.retained[1:]
	}
	s.mu.Unlock()
}

// remapFan translates a slice-local engine event (indexed into the
// pending sublist) back into the job's original point numbering before
// fanning it out, so streamed rows carry stable indices across
// preemption rounds.
type remapFan struct {
	fan   progressFan
	idx   []int // engine index -> original point index
	total int
}

// Event implements sweep.Progress.
func (r remapFan) Event(ev sweep.Event) {
	ev.Index = r.idx[ev.Index]
	ev.Total = r.total
	r.fan.Event(ev)
}

// progressFan adapts the engine's Progress callbacks onto the job's
// feed and the server-wide point counters. It is called from engine
// worker goroutines.
type progressFan struct {
	s *Server
	j *job
}

// Event implements sweep.Progress.
func (p progressFan) Event(ev sweep.Event) {
	p.j.noteEvent(ev)
	p.s.notePoint(ev)
}

// noteEvent translates one engine event into the job's stream and its
// progress counters.
func (j *job) noteEvent(ev sweep.Event) {
	e, ok := EngineEvent(ev)
	if !ok {
		return
	}
	if e.Type == EventPoint {
		j.mu.Lock()
		j.done++
		switch e.Status {
		case PointCached:
			j.cacheHits++
		case PointError:
			j.errors++
		}
		j.mu.Unlock()
	}
	j.feed.append(e)
}

// notePoint updates server-wide point metrics; called by the server's
// wrapping observer so jobProgress stays job-scoped.
func (s *Server) notePoint(ev sweep.Event) {
	switch ev.Type {
	case sweep.JobStart:
		// Starts are not point outcomes; nothing to count.
	case sweep.JobDone:
		s.metrics.pointsDone.Add(1)
		s.metrics.pointWallMS.Observe(ev.Wall.Milliseconds())
		s.noteFaults(ev)
	case sweep.JobCacheHit:
		s.metrics.pointsCached.Add(1)
		s.noteFaults(ev)
	case sweep.JobError:
		s.metrics.pointsFailed.Add(1)
		s.metrics.pointWallMS.Observe(ev.Wall.Milliseconds())
		if ev.Job.Faults != nil {
			s.metrics.trialsViolated.Add(1)
		}
	case sweep.CacheWriteError:
		s.log("cache write failed for %s: %s", ev.Job.Desc(), ev.Err)
	case sweep.JobPaused:
		s.metrics.pointsSnapshotted.Add(1)
	}
}

// noteFaults folds a finished point's reliability counters into the
// server-wide metrics. Fault-free points report zeros for both, so the
// counters move only when a fault spec was attached and actually fired.
func (s *Server) noteFaults(ev sweep.Event) {
	if ev.Result == nil {
		return
	}
	if n := ev.Result.Res.FaultsInjected; n > 0 {
		s.metrics.faultsInjected.Add(n)
	}
	if n := ev.Result.Res.LostPkts; n > 0 {
		s.metrics.packetsDropped.Add(n)
	}
}

// lookup returns a retained or in-flight job by id.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Drain stops admitting work and waits for queued and running jobs to
// finish. If ctx expires first, in-flight work is canceled through the
// engine's context path and Drain waits for the runners to exit, so no
// goroutines leak either way. The server is not reusable afterwards.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.stopping = true
	s.cond.Broadcast()
	queued, running := len(s.queued), s.running
	s.mu.Unlock()
	s.log("draining: %d queued, %d running", queued, running)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.log("drained cleanly")
		return nil
	case <-ctx.Done():
		s.baseCancel()
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
		<-done
		s.log("drain grace expired; in-flight jobs canceled")
		return ctx.Err()
	}
}

// Close cancels everything immediately and waits for the runners.
func (s *Server) Close() {
	s.baseCancel()
	s.mu.Lock()
	s.draining = true
	s.stopping = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// Draining reports whether the server has stopped admitting work.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}
