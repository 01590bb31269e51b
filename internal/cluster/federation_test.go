package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"flov/internal/sweep"
)

// fillCache simulates "another node computed these points": a cold
// engine run writing into c.
func fillCache(t *testing.T, c *sweep.Cache, points []sweep.Job) {
	t.Helper()
	engine := &sweep.Engine{Workers: 2, Cache: c}
	engine.Run(context.Background(), points)
}

func TestFederationEntryFetch(t *testing.T) {
	points := mustPoints(t, testSpec(0.1, 0.2))
	remote := newCache(t)
	fillCache(t, remote, points)

	srv := httptest.NewServer(CacheHandler(remote))
	defer srv.Close()
	peers := NewPeers([]string{srv.URL})

	local := newCache(t)
	if n := peers.Warm(local, points); n != len(points) {
		t.Fatalf("Warm adopted %d entries, want %d", n, len(points))
	}
	hits, misses, rejected := peers.Counters()
	if hits != int64(len(points)) || misses != 0 || rejected != 0 {
		t.Fatalf("counters = %d/%d/%d", hits, misses, rejected)
	}
	// The adopted entries hit locally and carry the exact remote rows.
	for _, p := range points {
		r, ok := local.Get(p)
		if !ok {
			t.Fatalf("local miss for %s after federation", p.Desc())
		}
		want, _ := remote.Get(p)
		if r.Job.Hash() != want.Job.Hash() {
			t.Fatal("federated entry decodes to a different job")
		}
	}
	// Re-warming is a no-op: everything already local.
	if n := peers.Warm(local, points); n != 0 {
		t.Fatalf("second Warm adopted %d, want 0", n)
	}
}

// TestFederationRejectsCorruptEntry pins the hardening: a peer serving
// mangled bytes (torn write, foreign writer, bitrot) is counted and
// skipped; the local cache never adopts them.
func TestFederationRejectsCorruptEntry(t *testing.T) {
	points := mustPoints(t, testSpec(0.1))
	remote := newCache(t)
	fillCache(t, remote, points)

	// Mangle the stored entry in place: parseable JSON, wrong content.
	hash := points[0].Hash()
	path := filepath.Join(remote.Dir(), hash[:2], hash+".json")
	if err := os.WriteFile(path, []byte(`{"hash":"`+hash+`","result":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(CacheHandler(remote))
	defer srv.Close()
	peers := NewPeers([]string{srv.URL})

	if _, ok := peers.FetchResult(points[0]); ok {
		t.Fatal("corrupt remote entry accepted")
	}
	_, misses, rejected := peers.Counters()
	if rejected != 1 || misses != 1 {
		t.Fatalf("rejected=%d misses=%d, want 1/1", rejected, misses)
	}
	local := newCache(t)
	if n := peers.Warm(local, points); n != 0 {
		t.Fatalf("Warm adopted %d corrupt entries", n)
	}
}

// TestFederationHandlerRejectsBadKeys pins the HTTP boundary: only
// plausible content hashes reach the filesystem.
func TestFederationHandlerRejectsBadKeys(t *testing.T) {
	srv := httptest.NewServer(CacheHandler(newCache(t)))
	defer srv.Close()

	for _, key := range []string{"UPPER", "xyz!", "a", "..%2f..%2fetc"} {
		resp, err := http.Get(srv.URL + "/v1/cache/entry/" + key)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound &&
			resp.StatusCode != http.StatusMovedPermanently {
			t.Errorf("key %q: status %d, want rejection", key, resp.StatusCode)
		}
	}
	// A well-formed miss is a clean 404.
	resp, err := http.Get(srv.URL + "/v1/cache/entry/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("miss status = %d, want 404", resp.StatusCode)
	}
}

// TestFederationDeadPeer: an unreachable peer is a fast miss, never an
// error — simulating locally is always a correct fallback.
func TestFederationDeadPeer(t *testing.T) {
	peers := NewPeers([]string{"http://127.0.0.1:1"}) // reliably refused
	points := mustPoints(t, testSpec(0.1))
	if _, ok := peers.FetchResult(points[0]); ok {
		t.Fatal("dead peer produced a hit")
	}
	if n := peers.Warm(newCache(t), points); n != 0 {
		t.Fatalf("Warm over dead peer adopted %d", n)
	}
}
