package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"flov/internal/service"
	"flov/internal/sweep"
)

func TestSubmitIdempotent(t *testing.T) {
	s := openStore(t)
	points := mustPoints(t, testSpec(0.1))

	rec, created, err := s.Submit(JobRecord{Points: points, Tenant: "a", DeadlineMS: 42})
	if err != nil || !created {
		t.Fatalf("first submit: created=%v err=%v", created, err)
	}
	if rec.ID != JobID(points) || rec.SpecHash != sweep.PointsHash(points) {
		t.Fatalf("identity not derived: %+v", rec)
	}

	// Resubmission coincides: the original record (tenant, deadline)
	// wins, nothing is overwritten.
	again, created, err := s.Submit(JobRecord{Points: points, Tenant: "b"})
	if err != nil || created {
		t.Fatalf("second submit: created=%v err=%v", created, err)
	}
	if again.Tenant != "a" || again.DeadlineMS != 42 {
		t.Fatalf("resubmission clobbered the record: %+v", again)
	}

	ids, err := s.List()
	if err != nil || len(ids) != 1 || ids[0] != rec.ID {
		t.Fatalf("List = %v, %v", ids, err)
	}
}

func TestMarkDoneFirstWriterWins(t *testing.T) {
	s := openStore(t)
	rec := submitJob(t, s, mustPoints(t, testSpec(0.1)))

	if err := s.MarkDone(rec.ID, DoneRecord{State: service.StateDone, FinishedMS: 1}); err != nil {
		t.Fatal(err)
	}
	// A raced finisher (steal that also completed) loses silently.
	if err := s.MarkDone(rec.ID, DoneRecord{State: service.StateCanceled, Reason: "late"}); err != nil {
		t.Fatal(err)
	}
	done, ok := s.Done(rec.ID)
	if !ok || done.State != service.StateDone || done.Reason != "" {
		t.Fatalf("done = %+v, want first writer's record", done)
	}
}

// appendPoint appends a row-carrying point event to the job's feed, as
// a worker does when a point finishes.
func appendPoint(t *testing.T, s *Store, id string, point, epoch int, r sweep.Result) {
	t.Helper()
	line, err := json.Marshal(service.StreamEvent{Type: service.EventPoint, Index: point,
		Status: service.PointDone, Epoch: epoch, Result: &r})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvent(id, line); err != nil {
		t.Fatal(err)
	}
}

// TestRowsTornTail pins the crash-tolerance contract of the rows in the
// feed: a partially appended final line, garbage lines and events that
// are not points are skipped; duplicate rows resolve last-write-wins;
// error rows and rows whose result does not hash to their point are
// never adopted.
func TestRowsTornTail(t *testing.T) {
	s := openStore(t)
	points := mustPoints(t, testSpec(0.1, 0.2))
	rec := submitJob(t, s, points)

	ref := referenceRows(t, points)
	r0, r1 := ref[0], ref[1]
	for _, line := range []string{`{"type":"accepted","total":2}`, `{"type":"claimed","epoch":1}`, `not json`} {
		if err := s.AppendEvent(rec.ID, []byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	appendPoint(t, s, rec.ID, 0, 1, r0)
	appendPoint(t, s, rec.ID, 1, 1, r1)
	// Duplicate for point 0 from a raced epoch: last write wins.
	stale := r0
	stale.Res.AvgLatency++
	appendPoint(t, s, rec.ID, 0, 2, stale)
	appendPoint(t, s, rec.ID, 0, 3, r0)
	// Error rows are skipped (they re-simulate on adoption).
	bad := r1
	bad.Err = "transient failure"
	appendPoint(t, s, rec.ID, 1, 2, bad)
	// A row claiming the wrong point index fails the hash pin, and an
	// index outside the job is dropped.
	appendPoint(t, s, rec.ID, 1, 2, r0)
	appendPoint(t, s, rec.ID, -1, 2, r0)
	appendPoint(t, s, rec.ID, 2, 2, r0)
	// Crash mid-append: a torn final line with no newline.
	f, err := os.OpenFile(s.eventsPath(rec.ID), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"point","index":1,"epoch":3,"res`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rows, err := s.Rows(rec.ID, points)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("len(rows) = %d, want 2", len(rows))
	}
	if rows[0].Job.Hash() != points[0].Hash() || rows[1].Job.Hash() != points[1].Hash() {
		t.Fatal("rows not pinned to their points")
	}
	if rows[0].Res.AvgLatency != r0.Res.AvgLatency {
		t.Fatal("duplicate rows did not resolve last-write-wins")
	}
	if rows[1].Err != "" {
		t.Fatal("error row adopted")
	}
}

func TestRowsZeroByteAndMissing(t *testing.T) {
	s := openStore(t)
	points := mustPoints(t, testSpec(0.1))
	rec := submitJob(t, s, points)

	// No file at all.
	rows, err := s.Rows(rec.ID, points)
	if err != nil || len(rows) != 0 {
		t.Fatalf("missing file: rows=%v err=%v", rows, err)
	}
	// Zero-byte file (crash between create and first append).
	if err := os.WriteFile(s.eventsPath(rec.ID), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rows, err = s.Rows(rec.ID, points)
	if err != nil || len(rows) != 0 {
		t.Fatalf("zero-byte file: rows=%v err=%v", rows, err)
	}
	// The store keeps one log per job: no rows/ directory.
	if _, err := os.Stat(filepath.Join(s.Dir(), "rows")); !os.IsNotExist(err) {
		t.Fatalf("store created a rows/ directory (stat err %v)", err)
	}
}

// TestEventsWithholdTornTail pins replay-offset stability: a torn final
// line is invisible until its newline lands, so line i is line i on
// every read and resumable streams never shift.
func TestEventsWithholdTornTail(t *testing.T) {
	s := openStore(t)
	rec := submitJob(t, s, mustPoints(t, testSpec(0.1)))

	// Submit wrote the feed's first line, the job's accepted event.
	head, err := s.Events(rec.ID, 0)
	if err != nil || len(head) != 1 {
		t.Fatalf("feed after Submit = %q, err %v; want the accepted line", head, err)
	}
	accepted := string(head[0])
	if err := s.AppendEvent(rec.ID, []byte(`{"type":"claimed"}`)); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(s.eventsPath(rec.ID), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"poi`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	lines, err := s.Events(rec.ID, 0)
	if err != nil || len(lines) != 2 {
		t.Fatalf("Events(0) = %d lines, err %v; want 2 (torn tail withheld)", len(lines), err)
	}
	lines, err = s.Events(rec.ID, 1)
	if err != nil || len(lines) != 1 || string(lines[0]) != `{"type":"claimed"}` {
		t.Fatalf("Events(1) = %q, err %v", lines, err)
	}
	if lines, _ := s.Events(rec.ID, 5); lines != nil {
		t.Fatalf("Events past end = %q, want nil", lines)
	}

	// The next append starts on a fresh line: the fragment becomes a line
	// of its own and the appended line stays whole. Earlier offsets hold.
	if err := s.AppendEvent(rec.ID, []byte(`{"type":"point"}`)); err != nil {
		t.Fatal(err)
	}
	lines, err = s.Events(rec.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{accepted, `{"type":"claimed"}`, `{"type":"poi`, `{"type":"point"}`}
	if len(lines) != len(want) {
		t.Fatalf("Events after append = %q, want %q", lines, want)
	}
	for i := range want {
		if string(lines[i]) != want[i] {
			t.Fatalf("Events after append = %q, want %q", lines, want)
		}
	}
}

func TestLeaseClaimRenewRelease(t *testing.T) {
	s := openStore(t)
	rec := submitJob(t, s, mustPoints(t, testSpec(0.1)))

	lease, err := s.Claim(rec.ID, "alpha", time.Minute)
	if err != nil || lease.Epoch != 1 {
		t.Fatalf("claim: %+v, %v", lease, err)
	}
	// Held: a second claimant is refused.
	if _, err := s.Claim(rec.ID, "beta", time.Minute); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("second claim err = %v, want ErrLeaseHeld", err)
	}
	if err := lease.Renew(time.Minute); err != nil {
		t.Fatal(err)
	}
	info, ok := s.CurrentLease(rec.ID)
	if !ok || info.Worker != "alpha" || info.Epoch != 1 || info.Expired(time.Now()) {
		t.Fatalf("lease info = %+v", info)
	}
	// Release requeues immediately: the next claim wins epoch 2.
	if err := lease.Release(); err != nil {
		t.Fatal(err)
	}
	l2, err := s.Claim(rec.ID, "beta", time.Minute)
	if err != nil || l2.Epoch != 2 {
		t.Fatalf("claim after release: %+v, %v", l2, err)
	}
	// The superseded holder discovers the loss on renew, and its release
	// becomes a no-op rather than clobbering the thief's lease.
	if err := lease.Renew(time.Minute); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale renew err = %v, want ErrLeaseLost", err)
	}
	if err := lease.Release(); err != nil {
		t.Fatalf("stale release err = %v, want nil", err)
	}
	if info, _ := s.CurrentLease(rec.ID); info.Worker != "beta" {
		t.Fatalf("stale release disturbed the live lease: %+v", info)
	}
}

func TestLeaseExpiryEnablesSteal(t *testing.T) {
	s := openStore(t)
	rec := submitJob(t, s, mustPoints(t, testSpec(0.1)))

	if _, err := s.Claim(rec.ID, "alpha", 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Unexpired: refused.
	if _, err := s.Claim(rec.ID, "beta", time.Minute); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("early steal err = %v", err)
	}
	time.Sleep(30 * time.Millisecond)
	l, err := s.Claim(rec.ID, "beta", time.Minute)
	if err != nil || l.Epoch != 2 || l.Worker != "beta" {
		t.Fatalf("steal after expiry: %+v, %v", l, err)
	}
}

func TestLeaseClaimRaceSingleWinner(t *testing.T) {
	s := openStore(t)
	rec := submitJob(t, s, mustPoints(t, testSpec(0.1)))

	const claimants = 8
	var wg sync.WaitGroup
	wins := make(chan int, claimants)
	for i := 0; i < claimants; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			if _, err := s.Claim(rec.ID, fmt.Sprintf("w%d", n), time.Minute); err == nil {
				wins <- n
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	won := 0
	for range wins {
		won++
	}
	if won != 1 {
		t.Fatalf("%d claimants won epoch 1, want exactly 1", won)
	}
}

func TestClaimUnknownJob(t *testing.T) {
	s := openStore(t)
	if _, err := s.Claim("jnope", "w", time.Minute); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err = %v, want ErrUnknownJob", err)
	}
}

func TestCorruptLeaseReadsAsExpired(t *testing.T) {
	s := openStore(t)
	rec := submitJob(t, s, mustPoints(t, testSpec(0.1)))
	if _, err := s.Claim(rec.ID, "alpha", time.Minute); err != nil {
		t.Fatal(err)
	}
	// Corrupt the lease file in place: the job must stay claimable, not
	// wedge forever behind an unparseable lease.
	if err := os.WriteFile(s.leasePath(rec.ID, 1), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := s.Claim(rec.ID, "beta", time.Minute)
	if err != nil || l.Epoch != 2 {
		t.Fatalf("claim over corrupt lease: %+v, %v", l, err)
	}
}

// TestMarshalResultsShape pins the canonical rendering: the indented
// json.Encoder form flovsweep writes, trailing newline included, so
// cluster results diff byte-identically against CLI output.
func TestMarshalResultsShape(t *testing.T) {
	points := mustPoints(t, testSpec(0.1))
	rows := referenceRows(t, points)
	data, err := MarshalResults(rows)
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1] != '\n' {
		t.Error("no trailing newline")
	}
	var back []json.RawMessage
	if err := json.Unmarshal(data, &back); err != nil || len(back) != 1 {
		t.Fatalf("round-trip: %d rows, err %v", len(back), err)
	}
}

// TestSubmitWritesAcceptedFirst: the first feed line of a created job is
// its accepted event, even when a worker claims the job the instant its
// record appears and appends at once, and when two submitters race.
func TestSubmitWritesAcceptedFirst(t *testing.T) {
	s := openStore(t)
	for i := 0; i < 10; i++ {
		points := mustPoints(t, testSpec(0.01*float64(i+1)))
		id := JobID(points)
		claimed := make(chan error, 1)
		go func() {
			deadline := time.Now().Add(30 * time.Second)
			for time.Now().Before(deadline) {
				if _, err := s.Claim(id, "racer", time.Minute); err == nil {
					claimed <- s.AppendEvent(id, []byte(`{"type":"claimed"}`))
					return
				}
			}
			claimed <- errors.New("never claimed the job")
		}()
		var wg sync.WaitGroup
		var created [2]bool
		for k := range created {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, c, err := s.Submit(JobRecord{Points: points})
				if err != nil {
					t.Error(err)
				}
				created[k] = c
			}()
		}
		wg.Wait()
		if err := <-claimed; err != nil {
			t.Fatal(err)
		}
		if created[0] == created[1] {
			t.Fatalf("job %d: created = %v, want exactly one submitter to create it", i, created)
		}
		lines, err := s.Events(id, 0)
		if err != nil || len(lines) != 2 {
			t.Fatalf("job %d: feed %q (err %v), want accepted then claimed", i, lines, err)
		}
		var ev service.StreamEvent
		if err := json.Unmarshal(lines[0], &ev); err != nil || ev.Type != service.EventAccepted ||
			ev.ID != id || ev.Total != len(points) || ev.State != service.StateQueued {
			t.Fatalf("job %d: first line %s, want its accepted event", i, lines[0])
		}
		if string(lines[1]) != `{"type":"claimed"}` {
			t.Fatalf("job %d: second line %s, want the racer's", i, lines[1])
		}
	}
}
