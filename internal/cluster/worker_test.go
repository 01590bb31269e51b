package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"flov/internal/service"
)

// TestWorkerPreemptAndResume runs a job under aggressive slicing: every
// slice preempts, checkpoints land in the store, the lease is released
// at each boundary, and the final rows still match the single-node run.
// Across all slices the feed carries exactly one point line per point,
// at its original index.
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

	seen := make(map[int]int)
	for _, ev := range feedPoints(t, store, rec.ID) {
		if ev.Index < 0 || ev.Index >= len(points) {
			t.Fatalf("point line at index %d outside %d points", ev.Index, len(points))
		}
		if ev.Result == nil || ev.Result.Job.Hash() != points[ev.Index].Hash() {
			t.Fatalf("point line at index %d does not carry that point's row", ev.Index)
		}
		seen[ev.Index]++
	}
	for i := range points {
		if seen[i] != 1 {
			t.Fatalf("point %d has %d point lines on the feed, want exactly 1 (seen %v)", i, seen[i], seen)
		}
	}
}

// feedPoints returns the point lines of a job's event feed.
func feedPoints(t *testing.T, s *Store, id string) []service.StreamEvent {
	t.Helper()
	lines, err := s.Events(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	var points []service.StreamEvent
	for _, line := range lines {
		var ev service.StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad feed line %q: %v", line, err)
		}
		if ev.Type == service.EventPoint {
			points = append(points, ev)
		}
	}
	return points
}

// TestWorkerCacheHoldsOnlyRows: a worker without job slicing finishes a
// job whose points have a warmup phase, and its cache directory then
// holds one row entry per point and no post-warmup snapshot sidecar
// (*.snap): a point starts from its own checkpoint or from cycle 0, and
// the cache stores rows only.
func TestWorkerCacheHoldsOnlyRows(t *testing.T) {
	points := mustPoints(t, testSpec(0.1, 0.2))
	if points[0].Config.WarmupCycles == 0 {
		t.Fatal("test points need a warmup phase")
	}
	store := openStore(t)
	rec := submitJob(t, store, points)
	cache := newCache(t)
	w := &Worker{Store: store, Cache: cache, Name: "unsliced",
		LeaseTTL: time.Minute, Workers: 2}
	done := driveToDone(t, w, store, rec.ID)
	if done.State != service.StateDone || done.Errors != 0 {
		t.Fatalf("done = %+v", done)
	}

	var rows, snaps int
	err := filepath.WalkDir(cache.Dir(), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		switch filepath.Ext(path) {
		case ".json":
			rows++
		case ".snap":
			snaps++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != len(points) || snaps != 0 {
		t.Fatalf("cache holds %d row entries and %d .snap files, want %d and 0", rows, snaps, len(points))
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

// TestWorkerStopsOnLostLease: a worker without slicing whose lease is
// superseded mid-point stops simulating at the engine's next poll
// instead of running the point to completion, so its epoch writes no
// point line. The point runs millions of cycles, seconds even on a fast
// kernel, against a lease whose loss the renewer notices within 20ms; a
// slower kernel only widens that margin.
func TestWorkerStopsOnLostLease(t *testing.T) {
	spec := testSpec(0.1)
	spec.Cycles = 3_000_000
	store := openStore(t)
	rec := submitJob(t, store, mustPoints(t, spec))
	w := &Worker{Store: store, Name: "holder", LeaseTTL: 60 * time.Millisecond, Workers: 1}

	// A thief takes epoch 2 as soon as the worker holds epoch 1.
	planted := make(chan error, 1)
	go func() {
		for give := time.Now().Add(10 * time.Second); time.Now().Before(give); {
			if li, ok := store.CurrentLease(rec.ID); ok && li.Epoch == 1 {
				data, err := json.Marshal(leaseWire{Job: rec.ID, Epoch: 2, Worker: "thief",
					ExpiresMS: time.Now().Add(time.Hour).UnixMilli()})
				if err == nil {
					_, err = publish(store.leasePath(rec.ID, 2), data)
				}
				planted <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
		planted <- errors.New("worker never claimed epoch 1")
	}()
	if _, err := w.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-planted; err != nil {
		t.Fatal(err)
	}
	for _, ev := range feedPoints(t, store, rec.ID) {
		if ev.Epoch == 1 && ev.Index == 0 {
			t.Fatal("epoch 1 ran its point to completion after losing the lease")
		}
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
