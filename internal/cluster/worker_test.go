package cluster

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"flov/internal/service"
)

// TestWorkerPreemptAndResume runs a job under aggressive slicing: every
// slice preempts, checkpoints land in the store, the lease is released
// at each boundary, and the final rows still match the single-node run.
func TestWorkerPreemptAndResume(t *testing.T) {
	points := mustPoints(t, longSpec(0.05, 0.1))
	ref := referenceBytes(t, points)

	store := openStore(t)
	rec := submitJob(t, store, points)
	w := &Worker{Store: store, Cache: newCache(t), Name: "slicer",
		LeaseTTL: time.Minute, Slice: time.Millisecond, Workers: 2, slice: pollSlices(3)}

	done := driveToDone(t, w, store, rec.ID)
	if done.State != service.StateDone || done.Errors != 0 {
		t.Fatalf("done = %+v", done)
	}
	_, _, finished, preempted := w.Counters()
	if preempted == 0 {
		t.Fatal("aggressive slicing never preempted")
	}
	if finished != 1 {
		t.Fatalf("finished = %d, want 1", finished)
	}
	got, ok := store.Results(rec.ID)
	if !ok {
		t.Fatal("no results file")
	}
	if !bytes.Equal(got, ref) {
		t.Error("sliced execution produced different bytes than single-node run")
	}
}

// TestWorkerFinishesAbandonedJob covers the epilogue steal: a previous
// holder wrote every row but died before the terminal bookkeeping; the
// next claimant finishes without re-simulating.
func TestWorkerFinishesAbandonedJob(t *testing.T) {
	points := mustPoints(t, testSpec(0.1, 0.2))
	rows := referenceRows(t, points)

	store := openStore(t)
	rec := submitJob(t, store, points)
	for i, r := range rows {
		appendPoint(t, store, rec.ID, i, 1, r)
	}
	w := &Worker{Store: store, Name: "janitor", LeaseTTL: time.Minute, Workers: 1}
	done := driveToDone(t, w, store, rec.ID)
	if done.State != service.StateDone || done.Errors != 0 {
		t.Fatalf("done = %+v", done)
	}
	got, _ := store.Results(rec.ID)
	if !bytes.Equal(got, referenceBytes(t, points)) {
		t.Error("assembled results differ from reference")
	}
}

// TestDeadlineIsAbsoluteAcrossRequeue pins the deadline fix: the job
// record carries an absolute deadline, so a steal or requeue does not
// restart the clock. A job whose deadline already passed cancels
// immediately regardless of how many epochs it went through.
func TestDeadlineIsAbsoluteAcrossRequeue(t *testing.T) {
	points := mustPoints(t, longSpec(0.05, 0.1))
	store := openStore(t)
	rec, _, err := store.Submit(JobRecord{Points: points,
		SubmittedMS: time.Now().Add(-time.Hour).UnixMilli(),
		DeadlineMS:  time.Now().Add(-time.Minute).UnixMilli()})
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a prior epoch: claim and release, as a preempted worker
	// would. The deadline must not reset.
	l, err := store.Claim(rec.ID, "old", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}

	w := &Worker{Store: store, Name: "late", LeaseTTL: time.Minute, Workers: 2}
	done := driveToDone(t, w, store, rec.ID)
	if done.State != service.StateCanceled {
		t.Fatalf("state = %q, want canceled (expired absolute deadline)", done.State)
	}
	if done.Errors != len(points) {
		t.Fatalf("errors = %d, want %d (all points canceled)", done.Errors, len(points))
	}
	got, ok := store.Results(rec.ID)
	if !ok {
		t.Fatal("canceled job should still publish its (error) rows")
	}
	if !bytes.Contains(got, []byte("context canceled")) {
		t.Error("canceled rows should carry the canceled error, like the single-node daemon")
	}
}

// TestWorkerShutdownReleasesLease: canceling the worker's context mid
// slice releases the claim so another worker resumes without waiting
// out the TTL.
func TestWorkerShutdownReleasesLease(t *testing.T) {
	points := mustPoints(t, longSpec(0.05))
	store := openStore(t)
	rec := submitJob(t, store, points)

	// The shutdown lands at the engine's second poll, after the point
	// has run one quantum, however fast the kernel runs.
	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{Store: store, Name: "doomed",
		LeaseTTL: time.Hour, // without release, a steal would wait an hour
		Slice:    50 * time.Millisecond, Workers: 1}
	w.slice = func() func() bool {
		var polls atomic.Int64
		return func() bool {
			if polls.Add(1) == 2 {
				cancel()
			}
			return false
		}
	}
	if _, err := w.Step(ctx); err != nil {
		t.Fatal(err)
	}
	if _, done := store.Done(rec.ID); done {
		t.Skip("job finished before shutdown fired")
	}
	// The lease must be immediately claimable.
	if _, err := store.Claim(rec.ID, "heir", time.Minute); err != nil {
		t.Fatalf("claim after shutdown: %v (lease not released)", err)
	}
}
