package sweep

import (
	"context"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"flov/internal/config"
)

// testGrid is a small mixed grid exercising all four mechanisms.
func testGrid() []Job {
	var jobs []Job
	for _, m := range config.Mechanisms() {
		for _, frac := range []float64{0, 0.5} {
			jobs = append(jobs, quickJob(m, 0.02, frac))
		}
	}
	return jobs
}

// stripTransient zeroes the per-invocation fields so results compare by
// simulation content only.
func stripTransient(results []Result) []Result {
	out := make([]Result, len(results))
	for i, r := range results {
		r.Wall = 0
		r.CacheHit = false
		out[i] = r
	}
	return out
}

// TestParallelMatchesSequential is the engine's core guarantee: the same
// job list produces identical rows, in identical order, at any worker
// count.
func TestParallelMatchesSequential(t *testing.T) {
	jobs := testGrid()
	seq := (&Engine{Workers: 1}).Run(context.Background(), jobs)
	par := (&Engine{Workers: 8}).Run(context.Background(), jobs)
	if !reflect.DeepEqual(stripTransient(seq), stripTransient(par)) {
		t.Fatal("parallel results differ from sequential results")
	}
	for i, r := range par {
		if r.Job.Hash() != jobs[i].Hash() {
			t.Fatalf("result %d is out of order", i)
		}
		if r.Err != "" {
			t.Fatalf("job %d failed: %s", i, r.Err)
		}
	}
}

// TestEngineResultOrdering uses a fake runner with inverted timing (first
// job slowest) to force out-of-order completion.
func TestEngineResultOrdering(t *testing.T) {
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = quickJob(config.Baseline, 0.02, 0)
		jobs[i].MaskSeed = uint64(i) // distinguish jobs
	}
	e := &Engine{
		Workers: 8,
		RunJob: func(j Job) Result {
			time.Sleep(time.Duration(16-j.MaskSeed) * time.Millisecond)
			return Result{Job: j}
		},
	}
	results := e.Run(context.Background(), jobs)
	for i, r := range results {
		if r.Job.MaskSeed != uint64(i) {
			t.Fatalf("result %d carries job %d", i, r.Job.MaskSeed)
		}
	}
}

// TestEnginePanicIsolation: a crashing job reports an error row; its
// siblings complete.
func TestEnginePanicIsolation(t *testing.T) {
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = quickJob(config.Baseline, 0.02, 0)
		jobs[i].MaskSeed = uint64(i)
	}
	e := &Engine{
		Workers: 3,
		RunJob: func(j Job) Result {
			if j.MaskSeed == 2 {
				panic("boom")
			}
			return Result{Job: j}
		},
	}
	results := e.Run(context.Background(), jobs)
	for i, r := range results {
		if i == 2 {
			if !strings.Contains(r.Err, "panic: boom") {
				t.Fatalf("panicking job reported %q", r.Err)
			}
			continue
		}
		if r.Err != "" {
			t.Fatalf("sibling %d failed: %s", i, r.Err)
		}
	}
}

// TestEngineCancellation: cancelling the context marks unstarted jobs as
// canceled without hanging the pool.
func TestEngineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := make([]Job, 32)
	for i := range jobs {
		jobs[i] = quickJob(config.Baseline, 0.02, 0)
		jobs[i].MaskSeed = uint64(i)
	}
	e := &Engine{
		Workers: 2,
		RunJob: func(j Job) Result {
			cancel()
			// Keep the workers busy so the feeder observes the cancel
			// before another worker frees up.
			time.Sleep(10 * time.Millisecond)
			return Result{Job: j}
		},
	}
	results := e.Run(ctx, jobs)
	ran, canceled := 0, 0
	for _, r := range results {
		if r.Err == context.Canceled.Error() {
			canceled++
		} else if r.Err == "" {
			ran++
		} else {
			t.Fatalf("unexpected error: %s", r.Err)
		}
	}
	if canceled == 0 {
		t.Fatal("no jobs were canceled")
	}
	if ran == 0 {
		t.Fatal("no jobs ran")
	}
	if ran+canceled != len(jobs) {
		t.Fatalf("ran %d + canceled %d != %d", ran, canceled, len(jobs))
	}
}

// TestEngineProgressEvents: every job emits start and exactly one
// completion event, with consistent totals.
func TestEngineProgressEvents(t *testing.T) {
	var mu sync.Mutex
	counts := map[EventType]int{}
	obs := progressFunc(func(e Event) {
		mu.Lock()
		defer mu.Unlock()
		counts[e.Type]++
		if e.Total != 8 {
			t.Errorf("event total = %d, want 8", e.Total)
		}
	})
	jobs := testGrid()
	e := &Engine{Workers: 4, Progress: obs, RunJob: func(j Job) Result { return Result{Job: j} }}
	e.Run(context.Background(), jobs)
	if counts[JobStart] != 8 || counts[JobDone] != 8 {
		t.Fatalf("unexpected event counts: %v", counts)
	}
}

// progressFunc adapts a function to the Progress interface.
type progressFunc func(Event)

func (f progressFunc) Event(e Event) { f(e) }

func TestSummarize(t *testing.T) {
	results := []Result{
		{CacheHit: true, Wall: time.Second},
		{Err: "x", Wall: time.Second},
		{Wall: 2 * time.Second},
	}
	s := Summarize(results, 3*time.Second)
	if s.Jobs != 3 || s.CacheHits != 1 || s.Errors != 1 || s.WorkWall != 4*time.Second || s.Wall != 3*time.Second {
		t.Fatalf("bad stats: %+v", s)
	}
	if !strings.Contains(s.String(), "3 jobs (1 cached, 1 failed)") {
		t.Fatalf("bad stats string: %s", s)
	}
}

// TestEngineCacheHitEvents: a cache hit emits its JobCacheHit event and
// nothing else, a simulated point JobStart then JobDone; and given
// Hashes, the engine reads and fills the cache under those keys instead
// of hashing the jobs itself.
func TestEngineCacheHitEvents(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := testGrid()[:3]
	var mu sync.Mutex
	var seen [][]EventType
	run := func(hashes []string) []Result {
		t.Helper()
		seen = make([][]EventType, len(jobs))
		obs := progressFunc(func(e Event) {
			mu.Lock()
			defer mu.Unlock()
			seen[e.Index] = append(seen[e.Index], e.Type)
		})
		e := &Engine{Workers: 2, Cache: c, Progress: obs, Hashes: hashes,
			RunJob: func(j Job) Result { return Result{Job: j} }}
		return e.Run(context.Background(), jobs)
	}
	check := func(name string, want []EventType) {
		t.Helper()
		for i, got := range seen {
			if !slices.Equal(got, want) {
				t.Fatalf("%s: point %d events %v, want %v", name, i, got, want)
			}
		}
	}

	_, hashes := HashPoints(jobs)
	run(hashes)
	check("cold", []EventType{JobStart, JobDone})
	for i, r := range run(hashes) {
		if !r.CacheHit {
			t.Fatalf("warm run missed point %d", i)
		}
	}
	check("warm", []EventType{JobCacheHit})
	for i, r := range run(nil) {
		if !r.CacheHit {
			t.Fatalf("warm run without Hashes missed point %d", i)
		}
	}

	// Keys no point hashes to: every lookup misses, so the engine used
	// the given hashes rather than its own.
	foreign := make([]string, len(jobs))
	for i := range foreign {
		foreign[i] = strings.Repeat("0", 63) + strconv.Itoa(i)
	}
	for i, r := range run(foreign) {
		if r.CacheHit {
			t.Fatalf("point %d hit the cache under a foreign key", i)
		}
	}
	check("foreign keys", []EventType{JobStart, JobDone})
}

// TestEngineEventRowIsResultSlot: every row event's Result is the row's
// own slot in the slice Run returns, not a copy, for a cache hit, a
// simulated point and an error point alike. Observers that keep the
// pointer (the serving layer's feed) then share the one row with the
// caller's result slice.
func TestEngineEventRowIsResultSlot(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := testGrid()[:3]
	runJob := func(j Job) Result {
		if j.Hash() == jobs[2].Hash() {
			return Result{Job: j, Err: "injected point error"}
		}
		return Result{Job: j}
	}
	// Warm the cache with point 0 only, so the real run sees one hit.
	(&Engine{Workers: 1, Cache: c, RunJob: runJob}).Run(context.Background(), jobs[:1])

	var mu sync.Mutex
	rows := map[int]*Result{}
	types := map[int]EventType{}
	obs := progressFunc(func(e Event) {
		if e.Type != JobDone && e.Type != JobCacheHit && e.Type != JobError {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		rows[e.Index], types[e.Index] = e.Result, e.Type
	})
	results := (&Engine{Workers: 2, Cache: c, Progress: obs, RunJob: runJob}).Run(context.Background(), jobs)

	want := map[int]EventType{0: JobCacheHit, 1: JobDone, 2: JobError}
	if !reflect.DeepEqual(types, want) {
		t.Fatalf("row events %v, want %v", types, want)
	}
	for i, r := range rows {
		if r != &results[i] {
			t.Errorf("point %d: %v event's Result is not &results[%d]", i, types[i], i)
		}
	}
}
