package cluster

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"flov/internal/service"
	"flov/internal/sweep"
)

// Worker pulls leased jobs from a shared store and executes them
// through the sweep engine. Multiple workers on one store form the
// cluster's execution plane: each polls for claimable jobs (never
// claimed, released at a preemption boundary, or abandoned by a dead
// worker whose lease expired), adopts whatever durable rows and
// checkpoint snapshots earlier epochs left, and simulates only what
// remains. Determinism makes all interleavings equivalent: the final
// row set is byte-identical however execution was sliced or stolen.
type Worker struct {
	Store *Store
	// Cache is the node-local content-addressed result cache; with
	// Peers set it participates in cluster-wide cache federation.
	Cache *sweep.Cache
	Peers *Peers
	// Name identifies this worker in leases and events.
	Name string
	// LeaseTTL is how long a claim lasts between renewals; a worker that
	// dies stops renewing and its job becomes stealable one TTL later.
	// Default 10s.
	LeaseTTL time.Duration
	// Poll is the idle scan interval. Default 250ms.
	Poll time.Duration
	// Slice, when positive, preempts jobs that run longer: in-flight
	// points checkpoint to the store and the lease is released, so any
	// worker (this one included) can continue the job. 0 runs each
	// claimed job to completion under lease renewal.
	Slice time.Duration
	// Workers is the engine pool size per job (<= 0 means GOMAXPROCS).
	Workers int
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)

	// slice substitutes the Slice timer: it starts one slice and returns
	// the poll the engine makes between simulation quanta, true once the
	// slice is over. Tests end slices after a set number of polls, so
	// preemption does not hang on how fast the kernel runs.
	slice func() (expired func() bool)

	jobsClaimed   atomic.Int64
	jobsStolen    atomic.Int64
	jobsFinished  atomic.Int64
	jobsPreempted atomic.Int64
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) leaseTTL() time.Duration {
	if w.LeaseTTL > 0 {
		return w.LeaseTTL
	}
	return 10 * time.Second
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return 250 * time.Millisecond
}

// startSlice starts the clock of one execution slice. It returns the
// slice's expiry poll and a func that stops the clock.
func (w *Worker) startSlice() (expired func() bool, stop func()) {
	if w.slice != nil {
		return w.slice(), func() {}
	}
	var over atomic.Bool
	timer := time.AfterFunc(w.Slice, func() { over.Store(true) })
	return over.Load, func() { timer.Stop() }
}

// Counters reports lifetime execution counts (claimed includes stolen).
func (w *Worker) Counters() (claimed, stolen, finished, preempted int64) {
	return w.jobsClaimed.Load(), w.jobsStolen.Load(), w.jobsFinished.Load(), w.jobsPreempted.Load()
}

// Run scans and executes until ctx is canceled. Claimed work is
// released (not abandoned) on shutdown: in-flight points checkpoint
// where slicing permits, and the lease expires immediately so another
// worker continues without waiting out the TTL.
func (w *Worker) Run(ctx context.Context) error {
	for {
		worked, err := w.Step(ctx)
		if err != nil {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if worked {
			continue // drain eagerly while claimable work exists
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(w.poll()):
		}
	}
}

// Step makes one scan pass: claim and execute at most one job slice.
// It reports whether any work was done (callers poll when idle). Steps
// are the unit tests drive directly for deterministic orchestration.
func (w *Worker) Step(ctx context.Context) (worked bool, err error) {
	ids, err := w.Store.List()
	if err != nil {
		return false, err
	}
	for _, id := range ids {
		if ctx.Err() != nil {
			return worked, nil
		}
		if _, done := w.Store.Done(id); done {
			continue
		}
		prev, hadPrev := w.Store.CurrentLease(id)
		lease, err := w.Store.Claim(id, w.Name, w.leaseTTL())
		if err != nil {
			continue // held, vanished, or store hiccup: next job
		}
		rec, err := w.Store.Job(id)
		if err != nil {
			_ = lease.Release()
			continue
		}
		w.jobsClaimed.Add(1)
		// A steal is adopting a lease that lapsed in someone else's
		// hands; re-claiming a job this worker itself preempted (or
		// whose prior lease is unreadable) at a higher epoch counts
		// only when the previous holder was a different worker.
		stolen := lease.Epoch > 1 && (!hadPrev || prev.Worker != w.Name)
		if stolen {
			w.jobsStolen.Add(1)
		}
		w.execute(ctx, rec, lease, stolen)
		worked = true
	}
	return worked, nil
}

// sliceObserver receives engine progress for one execution slice: it
// appends each finished point to the feed as a point event carrying its
// row (durable incremental progress; Store.Rows reads them back) and
// collects error rows in memory (Rows skips them, so a later epoch
// retries those points). Called from engine worker goroutines.
type sliceObserver struct {
	w     *Worker
	job   string
	epoch int
	idx   []int // engine index -> original point index
	total int

	mu   sync.Mutex
	errs map[int]sweep.Result
}

// Event implements sweep.Progress.
func (o *sliceObserver) Event(ev sweep.Event) {
	if ev.Type == sweep.CacheWriteError {
		o.w.logf("cache write failed for %s: %s", ev.Job.Desc(), ev.Err)
		return
	}
	ev.Index, ev.Total = o.idx[ev.Index], o.total
	e, ok := service.EngineEvent(ev)
	if !ok || e.Type != service.EventPoint {
		return // starts are noise on a durable feed
	}
	if ev.Type == sweep.JobError {
		o.mu.Lock()
		o.errs[ev.Index] = *ev.Result
		o.mu.Unlock()
	}
	e.Epoch = o.epoch
	o.w.appendEvent(o.job, e)
}

// errors snapshots the slice's error rows.
func (o *sliceObserver) errors() map[int]sweep.Result {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[int]sweep.Result, len(o.errs))
	for k, v := range o.errs {
		out[k] = v
	}
	return out
}

// appendEvent stamps this worker on one feed line and appends it,
// best-effort: a lost line costs replay detail (or, for a point, a
// re-simulation on adoption), never the final row set.
func (w *Worker) appendEvent(id string, ev service.StreamEvent) {
	ev.Worker = w.Name
	line, err := json.Marshal(ev)
	if err != nil {
		return
	}
	if err := w.Store.AppendEvent(id, line); err != nil {
		w.logf("event append failed for %s: %v", id, err)
	}
}

// execute runs one leased slice of a job: adopt durable rows and
// checkpoints, simulate pending points until done, preempted, deadline,
// or shutdown, then persist the outcome and release the lease.
func (w *Worker) execute(ctx context.Context, rec JobRecord, lease *Lease, stolen bool) {
	durable, err := w.Store.Rows(rec.ID, rec.Points)
	if err != nil {
		w.logf("rows read failed for %s: %v", rec.ID, err)
		_ = lease.Release()
		return
	}
	var idx []int
	for i := range rec.Points {
		if _, ok := durable[i]; !ok {
			idx = append(idx, i)
		}
	}
	kind := service.EventClaimed
	if stolen {
		kind = service.EventStolen
	}
	w.appendEvent(rec.ID, service.StreamEvent{Type: kind, ID: rec.ID, Epoch: lease.Epoch,
		Total: len(rec.Points), Remaining: len(idx)})
	w.logf("%s %s epoch %d: %d of %d points pending",
		kind, rec.ID, lease.Epoch, len(idx), len(rec.Points))

	if len(idx) == 0 {
		// Every point already has a durable row — the previous holder
		// died between its last row and the terminal write. Finish the
		// bookkeeping it never got to.
		w.finalize(rec, lease, durable, nil, service.StateDone, "")
		return
	}

	// An already-lapsed absolute deadline cancels before the engine
	// starts. Requeues and steals never restart the clock, and a
	// pre-canceled context racing the engine's dispatch would leave it
	// nondeterministic which points error; skipping the engine makes
	// every pending point a clean cancellation.
	if rec.DeadlineMS > 0 && time.Now().UnixMilli() >= rec.DeadlineMS {
		w.finalize(rec, lease, durable, nil, service.StateCanceled, "job deadline exceeded")
		return
	}

	pending := make([]sweep.Job, len(idx))
	snaps := make([][]byte, len(idx))
	adoptedSnaps := 0
	for k, i := range idx {
		pending[k] = rec.Points[i]
		if snap, ok := w.Store.Snapshot(rec.ID, i); ok {
			snaps[k] = snap
			adoptedSnaps++
		}
	}
	if adoptedSnaps > 0 {
		w.logf("%s: adopted %d checkpoint snapshot(s)", rec.ID, adoptedSnaps)
	}

	// Cache federation: pull rows (and warm blobs, when the warm path is
	// active) computed elsewhere into the local cache before simulating.
	if w.Peers.Len() > 0 && w.Cache != nil {
		if n := w.Peers.Warm(w.Cache, pending, w.Slice <= 0); n > 0 {
			w.logf("%s: federated %d cache entr(ies) from peers", rec.ID, n)
		}
	}

	// The job's deadline is absolute (set once at submit), so requeues
	// and steals never restart the clock.
	dctx := ctx
	cancel := func() {}
	if rec.DeadlineMS > 0 {
		dctx, cancel = context.WithDeadline(ctx, time.UnixMilli(rec.DeadlineMS))
	}
	defer cancel()

	// Renew the lease while executing; losing it (a steal after a renew
	// gap) preempts the engine so this epoch stops burning CPU.
	var lost atomic.Bool
	renewCtx, stopRenew := context.WithCancel(dctx)
	var renewWG sync.WaitGroup
	renewWG.Add(1)
	go func() {
		defer renewWG.Done()
		t := time.NewTicker(w.leaseTTL() / 3)
		defer t.Stop()
		for {
			select {
			case <-renewCtx.Done():
				return
			case <-t.C:
				if err := lease.Renew(w.leaseTTL()); err != nil {
					lost.Store(true)
					return
				}
			}
		}
	}()

	obs := &sliceObserver{w: w, job: rec.ID, epoch: lease.Epoch,
		idx: idx, total: len(rec.Points), errs: make(map[int]sweep.Result)}
	engine := &sweep.Engine{
		Workers:   w.Workers,
		Cache:     w.Cache,
		Progress:  obs,
		WarmStart: w.Slice <= 0 && w.Cache != nil,
		Snapshots: snaps,
	}
	if w.Slice > 0 {
		expired, stop := w.startSlice()
		defer stop()
		engine.Pause = func() bool {
			return expired() || lost.Load() || dctx.Err() != nil
		}
	}
	results := engine.Run(dctx, pending)
	stopRenew()
	renewWG.Wait()

	deadlineHit := dctx.Err() != nil && ctx.Err() == nil
	if ctx.Err() != nil {
		// Worker shutdown: persist whatever checkpoints the engine took,
		// release so another worker resumes without waiting out the TTL.
		w.persistSnapshots(rec.ID, idx, results)
		_ = lease.Release()
		return
	}
	if lost.Load() {
		// Stolen mid-slice. The thief owns the job now; rows this slice
		// already appended are valid (byte-identical by determinism), the
		// rest of this epoch's state is abandoned.
		w.logf("%s: lease lost mid-slice, abandoning epoch %d", rec.ID, lease.Epoch)
		return
	}

	paused := w.persistSnapshots(rec.ID, idx, results)
	if paused > 0 && !deadlineHit {
		w.jobsPreempted.Add(1)
		w.appendEvent(rec.ID, service.StreamEvent{Type: service.EventPreempted, ID: rec.ID,
			Epoch: lease.Epoch, Total: len(rec.Points), Remaining: paused})
		w.logf("preempt %s: %d point(s) remaining", rec.ID, paused)
		_ = lease.Release() // requeue: claimable immediately, by anyone
		return
	}

	durable, err = w.Store.Rows(rec.ID, rec.Points)
	if err != nil {
		w.logf("rows re-read failed for %s: %v", rec.ID, err)
		_ = lease.Release()
		return
	}
	// Guard the feed's best-effort writes: rows finished this slice
	// are merged from memory too, so a full disk degrades durability of
	// intermediate progress, never the final row set.
	for k, r := range results {
		if !r.Paused && r.Err == "" {
			durable[idx[k]] = r
		}
	}
	state, reason := service.StateDone, ""
	if deadlineHit {
		state, reason = service.StateCanceled, "job deadline exceeded"
	}
	w.finalize(rec, lease, durable, obs.errors(), state, reason)
}

// persistSnapshots stores checkpoints of paused points and reports how
// many points remain unfinished.
func (w *Worker) persistSnapshots(id string, idx []int, results []sweep.Result) (paused int) {
	for k, r := range results {
		if !r.Paused {
			continue
		}
		paused++
		if r.Snapshot != nil {
			if err := w.Store.PutSnapshot(id, idx[k], r.Snapshot); err != nil {
				// Best effort: a lost checkpoint re-simulates from the last
				// durable one (or cold); progress slows, rows stay identical.
				w.logf("snapshot write failed for %s point %d: %v", id, idx[k], err)
			}
		}
	}
	return paused
}

// finalize publishes the canonical results and the terminal marker,
// then cleans up execution state. First finisher wins the done marker;
// byte-identical determinism makes raced finalizers equivalent.
func (w *Worker) finalize(rec JobRecord, lease *Lease, durable, sliceErrs map[int]sweep.Result, state, reason string) {
	full := assembleRows(rec.Points, durable, sliceErrs)
	done := DoneRecord{State: state, Reason: reason}
	for _, r := range full {
		if r.Err != "" {
			done.Errors++
		}
	}
	data, err := MarshalResults(full)
	if err != nil {
		w.logf("encode results for %s: %v", rec.ID, err)
		_ = lease.Release()
		return
	}
	if err := w.Store.WriteResults(rec.ID, data); err != nil {
		w.logf("write results for %s: %v", rec.ID, err)
		_ = lease.Release()
		return
	}
	done.FinishedMS = time.Now().UnixMilli()
	if err := w.Store.MarkDone(rec.ID, done); err != nil {
		w.logf("mark done for %s: %v", rec.ID, err)
		_ = lease.Release()
		return
	}
	w.jobsFinished.Add(1)
	w.Store.RemoveSnapshots(rec.ID)
	w.Store.RemoveLeases(rec.ID)
	w.logf("finish %s: %s (%d points, %d errors)", rec.ID, state, len(rec.Points), done.Errors)
}
