package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"flov/internal/config"
	"flov/internal/fault"
	"flov/internal/traffic"
)

// FuzzDecodeEntry hardens the cache entry decoder, which validates every
// entry read from disk, whoever wrote it. Seeded from a real Cache.Put entry
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
	seed, err := os.ReadFile(c.path(hash))
	if err != nil {
		f.Fatalf("seed entry not stored: %v", err)
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
		stored, err := os.ReadFile(c.path(hash))
		if err != nil {
			t.Fatalf("entry missing after Put: %v", err)
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

// FuzzReadJobs hardens the spec decoder both serving planes admit
// sweeps through. Seeded from the perfbench serve grid, the spec bodies
// of the tests and of CI, a PARSEC spec and a spec one point over
// MaxSpecPoints: ReadJobs must never panic, must return an error or
// between 1 and MaxSpecPoints jobs, and every job must survive a JSON
// round trip with its hash intact.
//
//	go test -run '^$' -fuzz '^FuzzReadJobs$' -fuzztime 30s ./internal/sweep/
func FuzzReadJobs(f *testing.F) {
	for _, body := range []string{
		`{"patterns":["uniform","tornado"],"rates":[0.02,0.08],"gated_fractions":[0,0.2,0.4,0.6,0.8],` +
			`"mechanisms":["all"],"cycles":2000,"warmup":200,"seed":1}`,
		`{}`,
		`{"patterns":["uniform"],"rates":[0.02],"gated_fractions":[0.5],"mechanisms":["all"]}`,
		`{"rates":`,
		`{"mechanisms":["x"]}`,
		`{"patterns":["uniform"],"rates":[0.05,0.1,0.15],"gated_fractions":[0.5],"mechanisms":["baseline","gflov"],` +
			`"width":4,"height":4,"cycles":20000,"warmup":500,"seed":7}`,
		`{"patterns":["hotspot"],"rates":[0.02],"width":4,"height":4,"cycles":8000,"faults":{"seed":9,"link_rate":1e-4,` +
			`"transient_cycles":60,"schedule":[{"at":2000,"kind":"router","node":5},{"at":3000,"kind":"link","node":9,"dir":"E"}]}}`,
		`{"benchmarks":["all"],"mechanisms":["baseline","gflov"],"max_cycles":100000}`,
	} {
		f.Add([]byte(body))
	}
	oversized, err := json.Marshal(oversizedSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(oversized)

	f.Fuzz(func(t *testing.T, body []byte) {
		jobs, err := ReadJobs(bytes.NewReader(body))
		if err != nil {
			return
		}
		if len(jobs) < 1 || len(jobs) > MaxSpecPoints {
			t.Fatalf("ReadJobs accepted %d jobs, want 1..%d", len(jobs), MaxSpecPoints)
		}
		for i, j := range jobs {
			data, err := json.Marshal(j)
			if err != nil {
				t.Fatalf("job %d: marshal: %v", i, err)
			}
			var back Job
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatalf("job %d: unmarshal %s: %v", i, data, err)
			}
			if back.Hash() != j.Hash() {
				t.Fatalf("job %d: round trip changed the hash:\n%s", i, data)
			}
		}
	})
}

// FuzzJobJSON hardens the job decoder every stream row, cache entry,
// cluster event and optimizer archive goes through. Seeded from real
// synthetic, hotspot-with-faults and PARSEC jobs and from the edge
// spellings TestJobJSONDecoding pins: decoding arbitrary bytes into a
// Job must never panic, and a job it accepts must encode to bytes that
// decode back to the same encoding and the same Hash.
//
//	go test -run '^$' -fuzz '^FuzzJobJSON$' -fuzztime 30s ./internal/sweep/
func FuzzJobJSON(f *testing.F) {
	rich := quickJob(config.GFLOV, 0.05, 0.25)
	rich.Pattern = traffic.Hotspot
	rich.Protect = []int{0, 3}
	rich.Hotspots = []int{5, 10}
	rich.Faults = &fault.Spec{Seed: 3, LinkRate: 1e-4, Schedule: []fault.Event{{At: 100, Kind: "link", Node: 5, Dir: "E"}}}
	parsec, err := (Spec{Benchmarks: []string{"dedup"}, Mechanisms: []string{"rp"}, MaxCycles: 5_000}).Jobs()
	if err != nil {
		f.Fatal(err)
	}
	plain, err := json.Marshal(quickJob(config.GFLOV, 0.02, 0.5))
	if err != nil {
		f.Fatal(err)
	}
	for _, j := range []Job{rich, parsec[0]} {
		data, err := json.Marshal(j)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(plain)
	for _, edit := range [][2]string{
		{`"kind":"synthetic"`, `"kind":"bogus"`},
		{`"pattern":"uniform"`, `"pattern":"bogus"`},
		{`"mechanism":"gFLOV"`, `"mechanism":"bogus"`},
		{`"pattern":"uniform"`, `"pattern":""`},
		{`"mechanism":"gFLOV"`, `"mechanism":3`},
		{`"kind":"synthetic",`, ``},
		{`,"mechanism":"gFLOV"`, ``},
	} {
		f.Add([]byte(strings.Replace(string(plain), edit[0], edit[1], 1)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var j Job
		if json.Unmarshal(data, &j) != nil {
			return
		}
		enc, err := json.Marshal(j)
		if err != nil {
			t.Fatalf("marshal of an accepted job: %v", err)
		}
		var back Job
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("re-encoded job rejected: %v\n%s", err, enc)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) || back.Hash() != j.Hash() {
			t.Fatalf("round trip changed the job:\n%s\n%s", enc, again)
		}
	})
}
