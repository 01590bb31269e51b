package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flov/internal/config"
)

func TestCacheRoundTrip(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := quickJob(config.GFLOV, 0.02, 0.5)
	if _, ok := c.Get(j); ok {
		t.Fatal("empty cache reported a hit")
	}
	want := j.Run()
	if want.Err != "" {
		t.Fatal(want.Err)
	}
	if err := c.Put(want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(j)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if !reflect.DeepEqual(got.Res, want.Res) {
		t.Fatal("cached results differ from the original run")
	}
	if n, err := c.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v; want 1", n, err)
	}
	if err := c.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(j); ok {
		t.Fatal("cleared cache reported a hit")
	}
}

func TestCacheCorruptEntryMisses(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := quickJob(config.Baseline, 0.02, 0)
	r := j.Run()
	if err := c.Put(r); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(c.Dir(), j.Hash()[:2], j.Hash()+".json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(j); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry was not removed")
	}
}

// TestCacheTruncatedEntryRecovers is the failure mode a crashed writer
// or full disk leaves behind: a truncated entry must act as a miss, the
// engine must recompute the point (no error-carrying Result surfaces),
// and the slot must be rewritten so the next run hits again.
func TestCacheTruncatedEntryRecovers(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := quickJob(config.RFLOV, 0.02, 0.5)
	e := &Engine{Workers: 1, Cache: c}
	cold := e.Run(context.Background(), []Job{j})
	if cold[0].Err != "" {
		t.Fatal(cold[0].Err)
	}

	// Truncate the entry mid-file: still bytes on disk, no longer JSON.
	path := filepath.Join(c.Dir(), j.Hash()[:2], j.Hash()+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	warm := e.Run(context.Background(), []Job{j})
	if warm[0].Err != "" {
		t.Fatalf("truncated entry surfaced an error-carrying result: %s", warm[0].Err)
	}
	if warm[0].CacheHit {
		t.Fatal("truncated entry was served as a cache hit")
	}
	if !reflect.DeepEqual(stripTransient(cold), stripTransient(warm)) {
		t.Fatal("recomputed rows differ from the original run")
	}

	// The recompute must have rewritten the slot: third run hits.
	third := e.Run(context.Background(), []Job{j})
	if !third[0].CacheHit {
		t.Fatal("recovered entry was not rewritten to the cache")
	}
}

// TestCacheMangledBodyMisses: an entry that parses and carries the right
// key but whose job body no longer hashes to that key (bit rot, foreign
// writer) must miss rather than serve another point's rows.
func TestCacheMangledBodyMisses(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := quickJob(config.Baseline, 0.02, 0)
	r := j.Run()
	if err := c.Put(r); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(c.Dir(), j.Hash()[:2], j.Hash()+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the embedded job's seed: still valid JSON, wrong content.
	mangled := strings.Replace(string(data), `"Seed": 7`, `"Seed": 8`, 1)
	if mangled == string(data) {
		t.Fatal("test setup: seed field not found in entry")
	}
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(j); ok {
		t.Fatal("mangled entry served as a hit")
	}
}

// TestCacheNeverServesCachedErrors: an error-carrying entry on disk
// (corruption or a foreign writer; the engine never caches failures)
// misses so the point recomputes.
func TestCacheNeverServesCachedErrors(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := quickJob(config.Baseline, 0.02, 0)
	r := j.Run()
	r.Err = "injected failure"
	if err := c.Put(r); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(j); ok {
		t.Fatal("error-carrying entry served as a hit")
	}
}

// TestEngineCacheSecondRunAllHits is the headline cache property: an
// unchanged sweep re-run is served entirely from disk with identical
// rows.
func TestEngineCacheSecondRunAllHits(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := testGrid()

	cold := (&Engine{Workers: 4, Cache: c}).Run(context.Background(), jobs)
	for _, r := range cold {
		if r.CacheHit {
			t.Fatal("cold run reported a cache hit")
		}
		if r.Err != "" {
			t.Fatal(r.Err)
		}
	}

	warm := (&Engine{Workers: 4, Cache: c}).Run(context.Background(), jobs)
	for i, r := range warm {
		if !r.CacheHit {
			t.Fatalf("warm run missed the cache at job %d", i)
		}
	}
	if !reflect.DeepEqual(stripTransient(cold), stripTransient(warm)) {
		t.Fatal("cached rows differ from simulated rows")
	}

	// A changed point misses cleanly; unchanged siblings still hit.
	jobs[0].Config.Seed++
	mixed := (&Engine{Workers: 4, Cache: c}).Run(context.Background(), jobs)
	if mixed[0].CacheHit {
		t.Fatal("changed job was served from the cache")
	}
	if !mixed[1].CacheHit {
		t.Fatal("unchanged job was re-simulated")
	}
}

// TestEngineResumeThroughCache pins the only resume path: a sweep
// cancelled after k points re-runs against the same cache directory,
// simulates exactly the points the first run never finished, and
// renders JSON rows byte-identical to an uninterrupted cache-less run.
func TestEngineResumeThroughCache(t *testing.T) {
	const k = 3
	dir := t.TempDir()
	jobs := testGrid()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done int
	interrupted := (&Engine{Workers: 1, Cache: c, Progress: progressFunc(func(ev Event) {
		if ev.Type == JobDone {
			if done++; done == k {
				cancel()
			}
		}
	})}).Run(ctx, jobs)
	finished := 0
	for _, r := range interrupted {
		if r.Err == "" {
			finished++
		}
	}
	// One point may already be handed to the worker when cancel lands.
	if finished < k || finished >= len(jobs) {
		t.Fatalf("interrupted run finished %d of %d points, want %d or %d", finished, len(jobs), k, k+1)
	}

	// A fresh handle on the same directory, as a re-run process gets.
	c, err = NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed := (&Engine{Workers: 2, Cache: c}).Run(context.Background(), jobs)
	hits, misses, _ := c.Counters()
	if misses != int64(len(jobs)-finished) || hits != int64(finished) {
		t.Fatalf("resume: %d hits, %d misses; want %d hits, %d misses",
			hits, misses, finished, len(jobs)-finished)
	}

	reference := (&Engine{Workers: 1}).Run(context.Background(), jobs)
	want, err := json.Marshal(reference)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed rows differ from an uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}

// TestEngineDoesNotCacheErrors: failed points re-run on the next sweep.
func TestEngineDoesNotCacheErrors(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := quickJob(config.GFLOV, 0.02, 0.5)
	j.Config.Width = 0 // invalid
	e := &Engine{Workers: 1, Cache: c}
	first := e.Run(context.Background(), []Job{j})
	if first[0].Err == "" {
		t.Fatal("invalid job did not fail")
	}
	second := e.Run(context.Background(), []Job{j})
	if second[0].CacheHit {
		t.Fatal("error result was cached")
	}
}

func TestDefaultDirEnvOverride(t *testing.T) {
	t.Setenv("FLOV_SWEEP_CACHE", "/tmp/custom-flov-cache")
	d, err := DefaultDir()
	if err != nil {
		t.Fatal(err)
	}
	if d != "/tmp/custom-flov-cache" {
		t.Fatalf("DefaultDir = %q", d)
	}
}
