package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Cache is a content-addressed on-disk result store. Entries are keyed
// by Job.Hash (which folds in the schema versions), so a changed
// config, seed, or schema version misses cleanly instead of serving
// stale rows. Layout: <dir>/<hh>/<hash>.json where hh is the
// first hash byte, to keep directories small. Older builds also wrote
// post-warmup snapshots there as .snap sidecars; nothing reads them, Len
// does not count them and Clear removes them with the rest.
//
// Each handle also keeps the last memRows rows it read and verified
// from disk in memory, so a hash it has served once is served again
// without a file read, a JSON decode or a re-hash of the stored job.
// Only verified disk reads fill the table (Put does not), so it never
// holds a row a disk read would not have served. Rows are
// content-addressed, so a table row stays correct even after another
// process clears or rewrites the directory.
//
// Concurrent use — including by multiple processes sharing a directory —
// is safe: writes go through a unique temp file plus rename, and reads
// that race a write simply miss and re-simulate.
type Cache struct {
	dir string

	mu   sync.Mutex
	mem  map[string]Result // verified rows by hash
	fifo [memRows]string   // hashes in mem, oldest at next once full
	next int

	hits, misses, writes atomic.Int64
}

// memRows bounds a handle's in-memory table; the oldest row is evicted
// first. It holds every job cmd/figures submits (706) with room to spare.
const memRows = 1024

// entry is the cache file format: the job (for human inspection and
// integrity checking), the result payload, and the original simulation
// wall time.
type entry struct {
	Hash   string    `json:"hash"`
	Saved  time.Time `json:"saved"`
	WallNS int64     `json:"wall_ns"`
	Result Result    `json:"result"`
}

// DefaultDir returns the cache directory used when the caller does not
// pick one: $FLOV_SWEEP_CACHE if set, else <user-cache-dir>/flov-sweep.
func DefaultDir() (string, error) {
	if d := os.Getenv("FLOV_SWEEP_CACHE"); d != "" {
		return d, nil
	}
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("sweep: no cache dir (set FLOV_SWEEP_CACHE): %w", err)
	}
	return filepath.Join(base, "flov-sweep"), nil
}

// NewCache opens (creating if needed) a cache rooted at dir.
func NewCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: create cache dir: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// OpenCache opens the cache the CLIs share: nil when disabled, else
// dir, or DefaultDir when dir is empty.
func OpenCache(dir string, disabled bool) (*Cache, error) {
	if disabled {
		return nil, nil
	}
	if dir == "" {
		var err error
		if dir, err = DefaultDir(); err != nil {
			return nil, err
		}
	}
	return NewCache(dir)
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// path returns the entry file for a hash.
func (c *Cache) path(hash string) string {
	return filepath.Join(c.dir, hash[:2], hash+".json")
}

// Get looks a job's cached result up. Corrupt, truncated or otherwise
// unusable entries count as misses (and are removed so the slot heals
// on the next Put): the caller recomputes and rewrites instead of ever
// seeing an error-carrying Result for a point that would simulate fine.
func (c *Cache) Get(j Job) (Result, bool) { return c.get(j.Hash()) }

// get is Get for a job whose hash the caller already holds.
func (c *Cache) get(hash string) (Result, bool) {
	c.mu.Lock()
	r, ok := c.mem[hash]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return r.clone(), true
	}
	data, err := os.ReadFile(c.path(hash))
	if err != nil {
		c.misses.Add(1)
		return Result{}, false
	}
	r, ok = DecodeEntry(hash, data)
	if !ok {
		_ = os.Remove(c.path(hash)) // best effort: a stale entry just misses again
		c.misses.Add(1)
		return Result{}, false
	}
	c.remember(hash, r)
	c.hits.Add(1)
	return r.clone(), true
}

// remember adds a verified row to the in-memory table, evicting the
// oldest row once the table is full.
func (c *Cache) remember(hash string, r Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.mem[hash]; ok {
		return // a concurrent Get of the same hash got here first
	}
	if c.mem == nil {
		c.mem = make(map[string]Result)
	}
	if old := c.fifo[c.next]; old != "" {
		delete(c.mem, old)
	}
	c.mem[hash] = r
	c.fifo[c.next] = hash
	c.next = (c.next + 1) % memRows
}

// clone returns r with its own backing arrays, so a caller that edits
// the row it was served cannot reach the in-memory table's copy.
func (r Result) clone() Result {
	r.Res.Timeline = slices.Clone(r.Res.Timeline)
	r.Job.Protect = slices.Clone(r.Job.Protect)
	r.Job.Hotspots = slices.Clone(r.Job.Hotspots)
	if r.Job.Faults != nil {
		f := *r.Job.Faults
		f.Schedule = slices.Clone(f.Schedule)
		r.Job.Faults = &f
	}
	return r
}

// DecodeEntry validates raw entry bytes against the hash they claim to
// answer and returns the result they carry. Three integrity layers: the
// JSON must parse (truncated writes do not), the recorded key must
// match the requested hash, and the embedded job must re-hash to that
// key (a parseable-but-mangled body misses instead of serving rows for
// a different point). An error-carrying entry is equally unusable —
// failures are never cached, so one can only be corruption or a foreign
// writer — and fails too. Every cache read goes through it, including
// reads of entries another process (a cluster worker sharing the
// directory, say) wrote.
func DecodeEntry(hash string, data []byte) (Result, bool) {
	var e entry
	if err := json.Unmarshal(data, &e); err != nil ||
		e.Hash != hash || e.Result.Job.Hash() != hash || e.Result.Err != "" {
		return Result{}, false
	}
	r := e.Result
	r.Wall = time.Duration(e.WallNS)
	return r, true
}

// Put stores a finished result. Error-carrying results are the caller's
// to filter; the engine never caches them (failures may be transient).
func (c *Cache) Put(r Result) error { return c.put(r.Job.Hash(), r) }

// put is Put for a row whose job hash the caller already holds.
func (c *Cache) put(hash string, r Result) error {
	e := entry{Hash: hash, Saved: time.Now().UTC(), WallNS: int64(r.Wall), Result: r}
	data, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return fmt.Errorf("sweep: encode cache entry: %w", err)
	}
	dir := filepath.Dir(c.path(hash))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, hash+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()           // the write error is the one to report
		_ = os.Remove(tmp.Name()) // best effort: orphan temp only wastes space
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), c.path(hash)); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	c.writes.Add(1)
	return nil
}

// Clear removes every cached entry (the whole directory tree) and
// recreates the root, and empties this handle's in-memory table.
func (c *Cache) Clear() error {
	c.mu.Lock()
	c.mem, c.fifo, c.next = nil, [memRows]string{}, 0
	c.mu.Unlock()
	if err := os.RemoveAll(c.dir); err != nil {
		return err
	}
	return os.MkdirAll(c.dir, 0o755)
}

// Counters reports this cache handle's hit/miss/write counts.
func (c *Cache) Counters() (hits, misses, writes int64) {
	return c.hits.Load(), c.misses.Load(), c.writes.Load()
}

// Len walks the cache and counts stored entries (diagnostics; O(entries)).
func (c *Cache) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(c.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n, err
}
