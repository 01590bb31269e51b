package cluster

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"flov/internal/service"
	"flov/internal/sweep"
)

// testSpec is a small real grid: len(rates) baseline points on a 4x4
// mesh, cheap enough to simulate in a unit test.
func testSpec(rates ...float64) sweep.Spec {
	return sweep.Spec{
		Patterns:   []string{"uniform"},
		Rates:      rates,
		GatedFracs: []float64{0.5},
		Mechanisms: []string{"baseline"},
		Width:      4, Height: 4,
		Cycles: 4_000, Warmup: 500,
		Seed: 7,
	}
}

// longSpec spans many checkpoint quanta per point, so slice preemption
// reliably catches points mid-run.
func longSpec(rates ...float64) sweep.Spec {
	s := testSpec(rates...)
	s.Cycles = 30_000
	return s
}

func mustPoints(t *testing.T, spec sweep.Spec) []sweep.Job {
	t.Helper()
	points, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return points
}

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newCache(t *testing.T) *sweep.Cache {
	t.Helper()
	c, err := sweep.NewCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// referenceRows runs the points through a cold single-node engine: the
// ground truth every cluster topology must reproduce.
func referenceRows(t *testing.T, points []sweep.Job) []sweep.Result {
	t.Helper()
	engine := &sweep.Engine{Workers: 2}
	return engine.Run(context.Background(), points)
}

// referenceBytes renders the single-node ground truth canonically.
func referenceBytes(t *testing.T, points []sweep.Job) []byte {
	t.Helper()
	data, err := MarshalResults(referenceRows(t, points))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// submitJob publishes a job record for points directly to the store.
func submitJob(t *testing.T, s *Store, points []sweep.Job) JobRecord {
	t.Helper()
	rec, _, err := s.Submit(JobRecord{Points: points, SubmittedMS: time.Now().UnixMilli()})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// driveToDone steps the worker until the job has a terminal marker.
func driveToDone(t *testing.T, w *Worker, s *Store, id string) DoneRecord {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if done, ok := s.Done(id); ok {
			return done
		}
		if _, err := w.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("job did not finish in time")
	return DoneRecord{}
}

// anySnapshot reports whether any point of the job has a stored
// checkpoint.
func anySnapshot(s *Store, id string, points int) bool {
	for i := 0; i < points; i++ {
		if _, ok := s.Snapshot(id, i); ok {
			return true
		}
	}
	return false
}

// TestClusterByteIdentical is the acceptance gate of the cluster
// subsystem: one sweep executed by two workers — with at least one
// stolen preempted slice and at least one federated cache hit — must
// produce results byte-identical to a single-node run of the same spec.
func TestClusterByteIdentical(t *testing.T) {
	points := mustPoints(t, longSpec(0.05, 0.1, 0.15, 0.2))
	ref := referenceBytes(t, points)

	// "Node gamma" computed this grid at some earlier time: its cache
	// holds the entries that must federate to node beta.
	cacheGamma := newCache(t)
	warmEngine := &sweep.Engine{Workers: 2, Cache: cacheGamma}
	warmEngine.Run(context.Background(), points)

	store := openStore(t)
	rec := submitJob(t, store, points)

	// Worker alpha (cold local cache) runs short slices: it preempts,
	// checkpointing in-run points, until at least one snapshot is durable.
	alpha := &Worker{Store: store, Cache: newCache(t), Name: "alpha",
		LeaseTTL: time.Minute, Slice: time.Millisecond, Workers: 2}
	for i := 0; i < 100 && !anySnapshot(store, rec.ID, len(points)); i++ {
		if _, err := alpha.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, done := store.Done(rec.ID); done {
			t.Fatal("job finished before a checkpoint was taken; shorten the slice")
		}
	}
	if !anySnapshot(store, rec.ID, len(points)) {
		t.Fatal("no checkpoint snapshot persisted by preempting worker")
	}
	_, _, _, preempted := alpha.Counters()
	if preempted == 0 {
		t.Fatal("alpha never preempted")
	}

	// Alpha crashes mid-epoch: it claims the job again and dies without
	// renewing or releasing. The lease must expire before beta can steal.
	if _, err := store.Claim(rec.ID, "alpha", 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	// Node beta: empty local cache, federated to gamma's.
	peerSrv := httptest.NewServer(CacheHandler(cacheGamma))
	defer peerSrv.Close()
	peers := NewPeers([]string{peerSrv.URL})
	beta := &Worker{Store: store, Cache: newCache(t), Peers: peers,
		Name: "beta", LeaseTTL: time.Minute, Workers: 2}

	done := driveToDone(t, beta, store, rec.ID)
	if done.State != service.StateDone {
		t.Fatalf("state = %q, want done (reason %q)", done.State, done.Reason)
	}
	if _, stolen, _, _ := beta.Counters(); stolen == 0 {
		t.Fatal("beta never stole the expired lease")
	}
	if hits, _, _ := peers.Counters(); hits == 0 {
		t.Fatal("no federated cache hit: pending entries should have come from gamma")
	}

	got, ok := store.Results(rec.ID)
	if !ok {
		t.Fatal("no results file")
	}
	if !bytes.Equal(got, ref) {
		t.Errorf("cluster results differ from single-node run:\ncluster: %d bytes\nsingle:  %d bytes",
			len(got), len(ref))
	}

	// The lease file record shows the steal: the final epoch belongs to
	// beta and is at least 3 (alpha's preempts, alpha's crash, beta).
	lines, err := store.Events(rec.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sawStolen, sawPreempted bool
	for _, line := range lines {
		if bytes.Contains(line, []byte(`"type":"stolen"`)) {
			sawStolen = true
		}
		if bytes.Contains(line, []byte(`"type":"preempted"`)) {
			sawPreempted = true
		}
	}
	if !sawStolen || !sawPreempted {
		t.Errorf("event feed missing steal/preempt markers (stolen=%v preempted=%v)",
			sawStolen, sawPreempted)
	}
}

// TestClusterSingleWorkerMatchesReference pins the simplest topology:
// one worker, no slicing, no federation.
func TestClusterSingleWorkerMatchesReference(t *testing.T) {
	points := mustPoints(t, testSpec(0.1, 0.2))
	ref := referenceBytes(t, points)

	store := openStore(t)
	rec := submitJob(t, store, points)
	w := &Worker{Store: store, Cache: newCache(t), Name: "solo",
		LeaseTTL: time.Minute, Workers: 2}
	done := driveToDone(t, w, store, rec.ID)
	if done.State != service.StateDone || done.Errors != 0 {
		t.Fatalf("done = %+v", done)
	}
	got, ok := store.Results(rec.ID)
	if !ok {
		t.Fatal("no results file")
	}
	if !bytes.Equal(got, ref) {
		t.Error("single-worker cluster results differ from direct engine run")
	}
	// Execution state is cleaned up; the durable artifacts remain.
	if anySnapshot(store, rec.ID, len(points)) {
		t.Error("snapshots not removed after completion")
	}
	if entries, err := os.ReadDir(filepath.Join(store.Dir(), "leases")); err != nil || len(entries) != 0 {
		t.Errorf("leases not removed after completion (%d left, err %v)", len(entries), err)
	}
}
