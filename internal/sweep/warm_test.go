package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flov/internal/config"
	"flov/internal/fault"
	"flov/internal/snapshot"
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

// warmJob is quickJob with a long warmup relative to its measurement
// window, the shape warm-start forking targets.
func warmJob(mech config.Mechanism, total int64) Job {
	j := quickJob(mech, 0.02, 0.5)
	j.Config.WarmupCycles = 2_000
	j.Config.TotalCycles = total
	return j
}

func TestWarmKeySharedAcrossWindows(t *testing.T) {
	a := warmJob(config.GFLOV, 4_000)
	b := warmJob(config.GFLOV, 6_000)
	if a.WarmKey() != b.WarmKey() {
		t.Fatal("jobs differing only in measurement window must share a warm key")
	}
	if a.Hash() == b.Hash() {
		t.Fatal("jobs differing in measurement window must not share a result hash")
	}
	c := warmJob(config.GFLOV, 4_000)
	c.Rate = 0.03
	if a.WarmKey() == c.WarmKey() {
		t.Fatal("jobs with different workloads must not share a warm key")
	}
}

// TestWarmStartMatchesCold is the warm-fork soundness property: both the
// donor run (which publishes the blob) and every restored run produce
// rows byte-identical to cold execution.
func TestWarmStartMatchesCold(t *testing.T) {
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range []config.Mechanism{config.Baseline, config.GFLOV, config.RP} {
		donor := warmJob(mech, 4_000)
		fork := warmJob(mech, 5_500)

		coldDonor := rowJSON(t, donor.Run())
		coldFork := rowJSON(t, fork.Run())

		if _, ok := cache.GetBlob(donor.WarmKey()); ok {
			t.Fatalf("%v: blob present before donor ran", mech)
		}
		warmDonor := donor.run(nil, cache, nil)
		if warmDonor.Err != "" {
			t.Fatalf("%v donor: %s", mech, warmDonor.Err)
		}
		if !bytes.Equal(coldDonor, rowJSON(t, warmDonor)) {
			t.Fatalf("%v: donor warm run differs from cold run", mech)
		}
		if _, ok := cache.GetBlob(donor.WarmKey()); !ok {
			t.Fatalf("%v: donor did not publish a warm blob", mech)
		}

		warmFork := fork.run(nil, cache, nil)
		if warmFork.Err != "" {
			t.Fatalf("%v fork: %s", mech, warmFork.Err)
		}
		if !bytes.Equal(coldFork, rowJSON(t, warmFork)) {
			t.Fatalf("%v: warm-forked run differs from cold run", mech)
		}
	}
}

// TestWarmStartHealsCorruptBlob: a mangled blob must never poison
// results — the point re-simulates cold and republishes.
func TestWarmStartHealsCorruptBlob(t *testing.T) {
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := warmJob(config.GFLOV, 4_000)
	cold := rowJSON(t, j.Run())

	key := j.WarmKey()
	if err := cache.PutBlob(key, []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}
	r := j.run(nil, cache, nil)
	if r.Err != "" {
		t.Fatalf("warm run with corrupt blob: %s", r.Err)
	}
	if !bytes.Equal(cold, rowJSON(t, r)) {
		t.Fatal("corrupt blob changed the result")
	}
	blob, ok := cache.GetBlob(key)
	if !ok {
		t.Fatal("healed blob not republished")
	}
	if bytes.Equal(blob, []byte("not a snapshot")) {
		t.Fatal("corrupt blob survived")
	}
	// The republished blob must now serve restores.
	r2 := j.run(nil, cache, nil)
	if r2.Err != "" || !bytes.Equal(cold, rowJSON(t, r2)) {
		t.Fatal("restore from republished blob differs from cold run")
	}
}

// TestSnapshotSchemaInJobHash (satellite): bumping the snapshot schema
// version must change every job hash, so rows (and warm blobs) written
// under the old state layout miss instead of being served.
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
	oldHash, oldWarm := j.Hash(), j.WarmKey()

	orig := snapSchemaVersion
	defer func() { snapSchemaVersion = orig }()
	snapSchemaVersion = orig + "-bumped"

	if j.Hash() == oldHash {
		t.Fatal("snapshot schema bump did not change the job hash")
	}
	if j.WarmKey() == oldWarm {
		t.Fatal("snapshot schema bump did not change the warm key")
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
			r = j.run(snap, nil, pauseAlways)
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

// TestWarmStartBench measures the warm-start speedup on a sweep whose
// points share a long warmup, and records it as a benchmark artifact.
// Opt-in via FLOV_BENCH_SNAPSHOT=<output path> (CI sets it); the ≥2x
// bound is part of the subsystem's acceptance criteria.
func TestWarmStartBench(t *testing.T) {
	outPath := os.Getenv("FLOV_BENCH_SNAPSHOT")
	if outPath == "" {
		t.Skip("set FLOV_BENCH_SNAPSHOT=<path> to run the warm-start benchmark")
	}
	const (
		warmup = 60_000
		window = 2_000
		points = 5
	)
	jobs := make([]Job, points)
	for i := range jobs {
		j := quickJob(config.GFLOV, 0.02, 0.5)
		j.Config.WarmupCycles = warmup
		// Distinct measurement windows, one shared warmup prefix.
		j.Config.TotalCycles = warmup + int64(window*(i+1))
		jobs[i] = j
	}

	coldStart := time.Now()
	cold := make([]Result, points)
	for i, j := range jobs {
		cold[i] = j.Run()
		if cold[i].Err != "" {
			t.Fatalf("cold point %d: %s", i, cold[i].Err)
		}
	}
	coldWall := time.Since(coldStart)

	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	warmStart := time.Now()
	warm := (&Engine{Workers: 1, Cache: cache, WarmStart: true}).Run(context.Background(), jobs)
	warmWall := time.Since(warmStart)
	for i, r := range warm {
		if r.Err != "" {
			t.Fatalf("warm point %d: %s", i, r.Err)
		}
	}

	for i := range jobs {
		if !bytes.Equal(rowJSON(t, cold[i]), rowJSON(t, warm[i])) {
			t.Fatalf("point %d: warm row differs from cold row", i)
		}
	}

	speedup := float64(coldWall) / float64(warmWall)
	report, err := json.MarshalIndent(map[string]any{
		"points":        points,
		"warmup_cycles": warmup,
		"window_cycles": window,
		"cold_ms":       coldWall.Milliseconds(),
		"warm_ms":       warmWall.Milliseconds(),
		"speedup":       speedup,
	}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil && filepath.Dir(outPath) != "." {
		t.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(report, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("warm-start bench: cold=%v warm=%v speedup=%.2fx", coldWall, warmWall, speedup)
	if speedup < 2 {
		t.Fatalf("warm-start speedup %.2fx below the 2x acceptance bound", speedup)
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
	paused := twin.run(nil, nil, func() bool { return true })
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

// TestWarmStartComposesWithPreemption runs a job list sharing one
// WarmKey with warm start and a pause that fires once, mid-measurement
// of the first job, then resumes it from its checkpoint: every row must
// equal a cold Job.Run row, and the warm blob must be in the cache.
func TestWarmStartComposesWithPreemption(t *testing.T) {
	jobs := []Job{warmJob(config.GFLOV, 12_000), warmJob(config.GFLOV, 14_000)}
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// One worker polls before each job starts and between slices. Job 0
	// is polled before it starts, at the warmup boundary (2000) and at
	// 6096, where the pause fires; job 1 then forks from the warm blob.
	var polls atomic.Int64
	eng := &Engine{Workers: 1, Cache: cache, WarmStart: true,
		Pause: func() bool { return polls.Add(1) == 3 }}
	round1 := eng.Run(context.Background(), jobs)
	if !round1[0].Paused || len(round1[0].Snapshot) == 0 {
		t.Fatalf("job 0 should have paused mid-measurement (paused=%v err=%q)", round1[0].Paused, round1[0].Err)
	}
	n, _, err := jobs[0].Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Restore(bytes.NewReader(round1[0].Snapshot), n, nil); err != nil {
		t.Fatal(err)
	}
	if n.Now() <= jobs[0].Config.WarmupCycles {
		t.Fatalf("job 0 paused at cycle %d, before its measurement window", n.Now())
	}
	if round1[1].Paused || round1[1].Err != "" {
		t.Fatalf("job 1 should have finished: paused=%v err=%q", round1[1].Paused, round1[1].Err)
	}
	if _, ok := cache.GetBlob(jobs[0].WarmKey()); !ok {
		t.Fatal("warm blob missing from the cache")
	}

	snaps := [][]byte{round1[0].Snapshot, nil}
	round2 := (&Engine{Workers: 1, Cache: cache, WarmStart: true, Snapshots: snaps}).Run(context.Background(), jobs)
	for i, j := range jobs {
		got := round2[i]
		if got.Paused || got.Err != "" {
			t.Fatalf("job %d did not finish on resume: paused=%v err=%q", i, got.Paused, got.Err)
		}
		if !bytes.Equal(rowJSON(t, j.Run()), rowJSON(t, got)) {
			t.Fatalf("job %d: warm, preempted and resumed row differs from the cold row", i)
		}
	}
	if !bytes.Equal(rowJSON(t, round1[1]), rowJSON(t, round2[1])) {
		t.Fatal("job 1: warm-forked row differs from its cached row")
	}
}
