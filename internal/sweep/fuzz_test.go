package sweep

import (
	"bytes"
	"encoding/json"
	"testing"

	"flov/internal/config"
)

// FuzzDecodeEntry hardens the cache entry decoder, which also validates
// entries fetched from cluster peers. Seeded from a real Cache.Put entry
// and its truncations: DecodeEntry must never panic, and any entry it
// accepts must go through Put and back through DecodeEntry to an equal
// Result (same durable JSON row, same wall time).
//
//	go test -run '^$' -fuzz '^FuzzDecodeEntry$' -fuzztime 30s ./internal/sweep/
func FuzzDecodeEntry(f *testing.F) {
	c, err := NewCache(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	j := quickJob(config.GFLOV, 0.02, 0.5)
	j.Config.TotalCycles = 1_000
	r := j.Run()
	if r.Err != "" {
		f.Fatal(r.Err)
	}
	if err := c.Put(r); err != nil {
		f.Fatal(err)
	}
	hash := j.Hash()
	seed, ok := c.ReadEntry(hash)
	if !ok {
		f.Fatal("seed entry not stored")
	}
	f.Add(seed)
	for _, n := range []int{0, 1, len(seed) / 4, len(seed) / 2, len(seed) - 1} {
		f.Add(seed[:n])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, ok := DecodeEntry(hash, data)
		if !ok {
			return
		}
		if err := c.Put(got); err != nil {
			t.Fatalf("Put of an accepted entry: %v", err)
		}
		stored, ok := c.ReadEntry(hash)
		if !ok {
			t.Fatal("entry missing after Put")
		}
		again, ok := DecodeEntry(hash, stored)
		if !ok {
			t.Fatalf("re-encoded entry rejected:\n%s", stored)
		}
		a, errA := json.Marshal(got)
		b, errB := json.Marshal(again)
		if errA != nil || errB != nil {
			t.Fatalf("marshal: %v / %v", errA, errB)
		}
		if !bytes.Equal(a, b) || got.Wall != again.Wall {
			t.Fatalf("round trip changed the result:\n%s (wall %v)\n%s (wall %v)", a, got.Wall, b, again.Wall)
		}
	})
}
