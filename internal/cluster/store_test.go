package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

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

	if err := s.MarkDone(rec.ID, DoneRecord{State: StateDone, FinishedMS: 1}); err != nil {
		t.Fatal(err)
	}
	// A raced finisher (steal that also completed) loses silently.
	if err := s.MarkDone(rec.ID, DoneRecord{State: StateCanceled, Reason: "late"}); err != nil {
		t.Fatal(err)
	}
	done, ok := s.Done(rec.ID)
	if !ok || done.State != StateDone || done.Reason != "" {
		t.Fatalf("done = %+v, want first writer's record", done)
	}
}

// TestRowsTornTail pins the crash-tolerance contract of the row log: a
// partially appended final record, blank lines and garbage are skipped;
// duplicate records resolve last-write-wins; error rows and rows whose
// result does not hash to their point are never adopted.
func TestRowsTornTail(t *testing.T) {
	s := openStore(t)
	points := mustPoints(t, testSpec(0.1, 0.2))
	rec := submitJob(t, s, points)

	ref := referenceRows(t, points)
	r0, r1 := ref[0], ref[1]
	if err := s.AppendRow(rec.ID, 0, 1, r0); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRow(rec.ID, 1, 1, r1); err != nil {
		t.Fatal(err)
	}
	// Duplicate for point 0 from a raced epoch: last write wins.
	if err := s.AppendRow(rec.ID, 0, 2, r0); err != nil {
		t.Fatal(err)
	}
	// Error rows are skipped (they re-simulate on adoption).
	bad := r1
	bad.Err = "transient failure"
	if err := s.AppendRow(rec.ID, 1, 2, bad); err != nil {
		t.Fatal(err)
	}
	// A row claiming the wrong point index fails the hash pin.
	if err := s.AppendRow(rec.ID, 1, 2, r0); err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: a torn final line with no newline.
	f, err := os.OpenFile(s.rowsPath(rec.ID), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"point":1,"epoch":3,"res`); err != nil {
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
	if err := os.WriteFile(s.rowsPath(rec.ID), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rows, err = s.Rows(rec.ID, points)
	if err != nil || len(rows) != 0 {
		t.Fatalf("zero-byte file: rows=%v err=%v", rows, err)
	}
}

// TestEventsWithholdTornTail pins replay-offset stability: a torn final
// line is invisible until its newline lands, so line i is line i on
// every read and resumable streams never shift.
func TestEventsWithholdTornTail(t *testing.T) {
	s := openStore(t)
	rec := submitJob(t, s, mustPoints(t, testSpec(0.1)))

	if err := s.AppendEvent(rec.ID, []byte(`{"type":"accepted"}`)); err != nil {
		t.Fatal(err)
	}
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

	// Completing the torn line makes it (and only it) appear.
	if err := s.AppendEvent(rec.ID, []byte(`nt"}`)); err == nil {
		// The completed line is "{"type":"poi" + our append; we appended a
		// full new line instead, so now the torn fragment plus this line
		// both end in newlines — the fragment becomes a (skipped or
		// parsed) line of its own. Offsets 0 and 1 are unchanged.
		lines, err := s.Events(rec.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if string(lines[0]) != `{"type":"accepted"}` || string(lines[1]) != `{"type":"claimed"}` {
			t.Fatal("completing the tail shifted earlier offsets")
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
