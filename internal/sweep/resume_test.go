package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"

	"flov/internal/config"
	"flov/internal/fault"
	"flov/internal/trace"
)

// rowJSON renders a result as its durable JSON row (transient fields are
// excluded by their tags), the byte-level currency of equivalence tests.
func rowJSON(t *testing.T, r Result) []byte {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return data
}

// TestSnapshotSchemaInJobHash: bumping the snapshot schema version must
// change every job hash, so rows written under the old state layout
// miss instead of being served.
func TestSnapshotSchemaInJobHash(t *testing.T) {
	j := quickJob(config.GFLOV, 0.02, 0.5)
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := j.Run()
	if r.Err != "" {
		t.Fatal(r.Err)
	}
	if err := cache.Put(r); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(j); !ok {
		t.Fatal("cache must hit before the schema bump")
	}
	oldHash := j.Hash()

	orig := snapSchemaVersion
	defer func() { snapSchemaVersion = orig }()
	snapSchemaVersion = orig + "-bumped"

	if j.Hash() == oldHash {
		t.Fatal("snapshot schema bump did not change the job hash")
	}
	if _, ok := cache.Get(j); ok {
		t.Fatal("cache served a row written under the old snapshot schema")
	}
}

// explodeDeepInStack panics from a named helper so the test below can
// assert the frame survives into the reported stack.
func explodeDeepInStack() { panic("synthetic test explosion") }

// TestPanicStackInErrorRow (satellite): the panic stack captured by the
// engine must be complete — the panicking function's name appears in the
// error row even when marshaled to JSON.
func TestPanicStackInErrorRow(t *testing.T) {
	e := &Engine{Workers: 1, RunJob: func(Job) Result {
		explodeDeepInStack()
		return Result{}
	}}
	results := e.Run(context.Background(), []Job{quickJob(config.GFLOV, 0.02, 0)})
	if len(results) != 1 || results[0].Err == "" {
		t.Fatal("expected one error-carrying result")
	}
	row := string(rowJSON(t, results[0]))
	if !strings.Contains(row, "explodeDeepInStack") {
		t.Fatalf("panic frame missing from JSON row:\n%s", row)
	}
	if !strings.Contains(row, "synthetic test explosion") {
		t.Fatalf("panic value missing from JSON row:\n%s", row)
	}
}

// TestResumableMatchesUninterrupted drives a job through repeated
// pause/checkpoint/resume cycles and requires the final row to be
// byte-identical to an uninterrupted run.
func TestResumableMatchesUninterrupted(t *testing.T) {
	for _, mech := range []config.Mechanism{config.GFLOV, config.RP} {
		j := quickJob(mech, 0.02, 0.5)
		j.Config.TotalCycles = 20_000
		cold := rowJSON(t, j.Run())

		pauseAlways := func() bool { return true }
		var snap []byte
		var r Result
		rounds := 0
		for {
			r = j.run(snap, pauseAlways)
			if r.Err != "" {
				t.Fatalf("%v round %d: %s", mech, rounds, r.Err)
			}
			if !r.Paused {
				break
			}
			if len(r.Snapshot) == 0 {
				t.Fatalf("%v round %d: paused without a snapshot", mech, rounds)
			}
			snap = r.Snapshot
			rounds++
			if rounds > 100 {
				t.Fatalf("%v: no forward progress across pauses", mech)
			}
		}
		if rounds == 0 {
			t.Fatalf("%v: run never paused (quantum too large for test window?)", mech)
		}
		if !bytes.Equal(cold, rowJSON(t, r)) {
			t.Fatalf("%v: resumed run differs from uninterrupted run after %d pauses", mech, rounds)
		}
	}
}

// TestEnginePreemptionRoundTrip exercises the engine-level contract:
// pause a sweep mid-flight, collect Paused results (with and without
// snapshots), re-run with the snapshots, and require the merged rows to
// equal an unpreempted sweep.
func TestEnginePreemptionRoundTrip(t *testing.T) {
	jobs := []Job{quickJob(config.GFLOV, 0.02, 0.5), quickJob(config.RP, 0.02, 0.5)}
	for i := range jobs {
		jobs[i].Config.TotalCycles = 20_000
	}
	want := (&Engine{Workers: 1}).Run(context.Background(), jobs)

	// Round 1: preempt after the third Pause poll. With one worker, job 0
	// makes a couple of quanta of progress and checkpoints; job 1 is
	// yielded before starting (nil snapshot).
	var polls atomic.Int64
	eng := &Engine{Workers: 1, Pause: func() bool { return polls.Add(1) >= 3 }}
	round1 := eng.Run(context.Background(), jobs)

	if !round1[0].Paused || len(round1[0].Snapshot) == 0 {
		t.Fatalf("job 0 should have paused with a snapshot (paused=%v)", round1[0].Paused)
	}
	if !round1[1].Paused || round1[1].Snapshot != nil {
		t.Fatalf("job 1 should have been yielded unstarted (paused=%v, snap=%d bytes)",
			round1[1].Paused, len(round1[1].Snapshot))
	}

	// Round 2: resume with the snapshots, no pause pressure.
	snaps := make([][]byte, len(jobs))
	for i, r := range round1 {
		snaps[i] = r.Snapshot
	}
	round2 := (&Engine{Workers: 1, Snapshots: snaps}).Run(context.Background(), jobs)
	for i := range jobs {
		if round2[i].Paused || round2[i].Err != "" {
			t.Fatalf("job %d did not finish on resume: paused=%v err=%q",
				i, round2[i].Paused, round2[i].Err)
		}
		if !bytes.Equal(rowJSON(t, want[i]), rowJSON(t, round2[i])) {
			t.Fatalf("job %d: resumed row differs from unpreempted row", i)
		}
	}
}

// TestEngineNeverCachesPausedResults: a paused row is half a simulation;
// caching it would poison later sweeps.
func TestEngineNeverCachesPausedResults(t *testing.T) {
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := quickJob(config.GFLOV, 0.02, 0.5)
	j.Config.TotalCycles = 20_000
	var polls atomic.Int64
	eng := &Engine{Workers: 1, Cache: cache, Pause: func() bool { return polls.Add(1) >= 2 }}
	results := eng.Run(context.Background(), []Job{j})
	if !results[0].Paused {
		t.Fatal("job should have paused")
	}
	if _, ok := cache.Get(j); ok {
		t.Fatal("paused result was cached")
	}
}

// TestPARSECFaultsSameErrorOnEveryPath pins one build for every run
// path: a PARSEC job carrying Faults gets Job.Run's error row whether
// the engine runs it preemptibly or resumes it from a checkpoint (here a
// real one, taken from the fault-free twin of the job).
func TestPARSECFaultsSameErrorOnEveryPath(t *testing.T) {
	prof, _ := trace.ProfileByName("canneal")
	cfg := config.FullSystem()
	cfg.Width, cfg.Height = 4, 4
	cfg.WarmupCycles, cfg.TotalCycles = 0, 1<<40
	twin := Job{Kind: PARSEC, Config: cfg, Mechanism: config.GFLOV, Profile: prof, Seed: 3, MaxCycles: 8_000}
	paused := twin.run(nil, func() bool { return true })
	if !paused.Paused || len(paused.Snapshot) == 0 {
		t.Fatalf("fault-free twin did not pause with a checkpoint (err=%q)", paused.Err)
	}

	j := twin
	j.Faults = &fault.Spec{Seed: 1}
	want := j.Run()
	if !strings.Contains(want.Err, "only supported for synthetic jobs") {
		t.Fatalf("Job.Run error = %q", want.Err)
	}
	never := func() bool { return false }
	paths := map[string]*Engine{
		"pause":    {Workers: 1, Pause: never},
		"snapshot": {Workers: 1, Snapshots: [][]byte{paused.Snapshot}},
	}
	for name, e := range paths {
		got := e.Run(context.Background(), []Job{j})[0]
		if !bytes.Equal(rowJSON(t, want), rowJSON(t, got)) {
			t.Errorf("%s path: row %s, want %s", name, rowJSON(t, got), rowJSON(t, want))
		}
	}
}
