package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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
