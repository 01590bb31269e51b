package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"flov/internal/service"
	"flov/internal/sweep"
)

// FuzzStoreRows hardens the reader of a job's event feed, the store's
// only record of finished rows. Arbitrary bytes are written as the feed
// and read back through Store.Rows, which must never panic and must
// adopt only error-free rows whose index lies within the points and
// whose job hashes to that point's. Seeded from the feed of a finished
// job, the same feed torn mid final line, and feeds with an extra line
// whose index is out of range or whose row is a foreign point's.
//
//	go test -run '^$' -fuzz '^FuzzStoreRows$' -fuzztime 30s ./internal/cluster/
func FuzzStoreRows(f *testing.F) {
	store, err := Open(filepath.Join(f.TempDir(), "store"))
	if err != nil {
		f.Fatal(err)
	}
	points := mustPoints(f, testSpec(0.1, 0.2))
	rec, _, err := store.Submit(JobRecord{Points: points, SubmittedMS: time.Now().UnixMilli()})
	if err != nil {
		f.Fatal(err)
	}
	w := &Worker{Store: store, Name: "seeder", LeaseTTL: time.Minute, Workers: 1}
	driveToDone(f, w, store, rec.ID)
	feed, err := os.ReadFile(store.eventsPath(rec.ID))
	if err != nil {
		f.Fatal(err)
	}
	rows, err := store.Rows(rec.ID, points)
	if err != nil || len(rows) != len(points) {
		f.Fatalf("seed feed yields %d rows (err %v), want %d", len(rows), err, len(points))
	}
	pointLine := func(index int, r sweep.Result) []byte {
		line, err := json.Marshal(service.StreamEvent{Type: service.EventPoint, Index: index,
			Status: service.PointDone, Result: &r})
		if err != nil {
			f.Fatal(err)
		}
		return append(line, '\n')
	}
	f.Add(feed)
	last := bytes.LastIndexByte(feed[:len(feed)-1], '\n') + 1
	f.Add(feed[:last+(len(feed)-last)/2])
	f.Add(append(bytes.Clone(feed), pointLine(len(points), rows[0])...))
	f.Add(append(bytes.Clone(feed), pointLine(0, rows[1])...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(store.eventsPath(rec.ID), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := store.Rows(rec.ID, points)
		if err != nil {
			t.Fatalf("Rows: %v", err)
		}
		for i, r := range got {
			if i < 0 || i >= len(points) {
				t.Fatalf("row index %d outside %d points", i, len(points))
			}
			if r.Err != "" {
				t.Fatalf("row %d carries an error: %s", i, r.Err)
			}
			if r.Job.Hash() != points[i].Hash() {
				t.Fatalf("row %d is not its point's row: %s", i, r.Job.Desc())
			}
		}
	})
}

// FuzzReadLease hardens the lease file reader. Arbitrary bytes are
// written as one epoch's lease file and read back through readLease,
// which must never panic and must return either the lease the file
// holds, when that names this job and epoch, or the expired fallback.
// Seeded from a live lease, leases naming another job or epoch, a
// truncated lease and JSON that is not a lease.
//
//	go test -run '^$' -fuzz '^FuzzReadLease$' -fuzztime 30s ./internal/cluster/
func FuzzReadLease(f *testing.F) {
	store, err := Open(filepath.Join(f.TempDir(), "store"))
	if err != nil {
		f.Fatal(err)
	}
	const id, epoch = "j0123456789abcdef", 3
	lease := func(w leaseWire) []byte {
		data, err := json.Marshal(w)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	live := lease(leaseWire{Job: id, Epoch: epoch, Worker: "alpha", ExpiresMS: 1 << 42})
	f.Add(live)
	f.Add(lease(leaseWire{Job: "jfedcba9876543210", Epoch: epoch, Worker: "alpha", ExpiresMS: 1 << 42}))
	f.Add(lease(leaseWire{Job: id, Epoch: epoch + 1, Worker: "alpha", ExpiresMS: 1 << 42}))
	f.Add(live[:len(live)/2])
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2]`))

	expired := leaseWire{Job: id, Epoch: epoch}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(store.leasePath(id, epoch), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := store.readLease(id, epoch)
		if !ok {
			t.Fatal("an existing lease file read as absent")
		}
		if got == expired {
			return
		}
		var own leaseWire
		if json.Unmarshal(data, &own) != nil || own != got || own.Job != id || own.Epoch != epoch {
			t.Fatalf("readLease = %+v, want this job's own lease or the expired fallback", got)
		}
	})
}

// FuzzFrontDoorSubmit hardens front-door admission. Arbitrary body
// bytes, timeout_ms values and X-Flov-Tenant headers are posted to
// POST /v1/sweeps on a fresh store, with quota and rate high enough
// that every parsable spec reaches the store. The handler must never
// panic and must answer only 202, 400 or 429; on 202 the store must
// read back a job record whose points hash to its SpecHash, a positive
// timeout_ms must put its deadline at least that far past the request,
// and the same request again must return the same ID marked deduped.
// Seeded from a valid spec with and without a tenant and a timeout,
// invalid timeouts, timeouts that overflow a Duration, a sparse spec
// that leans on defaults, a truncated spec and JSON that is not a spec.
//
//	go test -run '^$' -fuzz '^FuzzFrontDoorSubmit$' -fuzztime 30s ./internal/cluster/
func FuzzFrontDoorSubmit(f *testing.F) {
	spec, err := json.Marshal(testSpec(0.1, 0.2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(spec, "", "")
	f.Add(spec, "1500", "acme")
	f.Add(spec, "0", "  ")
	f.Add(spec, "-1", "acme")
	f.Add(spec, "soon", "acme")
	f.Add(spec, "99999999999999999999", "acme")
	f.Add(spec, "9223372036854775807", "acme")
	f.Add([]byte(`{"patterns":["uniform"],"rates":[],"mechanisms":["baseline"]}`), "", "acme")
	f.Add(spec[:len(spec)/2], "", "acme")
	f.Add([]byte(`[1,2]`), "", "")
	f.Add(spec, "18446744073710", "acme")

	cfg := FrontDoorConfig{MaxActivePerTenant: 1 << 30, RatePerMinute: 1 << 30, Burst: 1 << 30}
	f.Fuzz(func(t *testing.T, body []byte, timeoutMS, tenant string) {
		store, err := Open(filepath.Join(t.TempDir(), "store"))
		if err != nil {
			t.Fatal(err)
		}
		h := NewFrontDoor(store, cfg).Handler()
		target := "/v1/sweeps"
		if timeoutMS != "" {
			target += "?" + url.Values{"timeout_ms": {timeoutMS}}.Encode()
		}
		submit := func() (int, service.JobStatus) {
			req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
			req.Header.Set("X-Flov-Tenant", tenant)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			var st service.JobStatus
			if rec.Code == http.StatusAccepted {
				if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
					t.Fatalf("202 body %q: %v", rec.Body.Bytes(), err)
				}
			}
			return rec.Code, st
		}

		before := time.Now().UnixMilli()
		code, st := submit()
		switch code {
		case http.StatusAccepted:
		case http.StatusBadRequest, http.StatusTooManyRequests:
			return
		default:
			t.Fatalf("status %d, want 202, 400 or 429", code)
		}
		rec, err := store.Job(st.ID)
		if err != nil {
			t.Fatalf("accepted job %q: %v", st.ID, err)
		}
		if rec.ID != st.ID || sweep.PointsHash(rec.Points) != rec.SpecHash {
			t.Fatalf("stored record %q (spec hash %s) does not match its points or the answered id %q",
				rec.ID, rec.SpecHash, st.ID)
		}
		if ms, err := strconv.ParseInt(timeoutMS, 10, 64); err == nil && ms > 0 &&
			(ms > math.MaxInt64-before || rec.DeadlineMS < before+ms) {
			t.Fatalf("timeout_ms=%d admitted with deadline %d, want at least %d ms after %d",
				ms, rec.DeadlineMS, ms, before)
		}
		again, st2 := submit()
		if again != http.StatusAccepted || st2.ID != st.ID || !st2.Deduped {
			t.Fatalf("resubmit: status %d, id %q, deduped %v; want 202, %q, true",
				again, st2.ID, st2.Deduped, st.ID)
		}
	})
}
