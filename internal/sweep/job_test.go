package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"flov/internal/config"
	"flov/internal/fault"
	"flov/internal/trace"
	"flov/internal/traffic"
)

// quickJob returns a small, fast synthetic point for engine tests.
func quickJob(mech config.Mechanism, rate, frac float64) Job {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.WarmupCycles, cfg.TotalCycles = 500, 4_000
	cfg.Seed = 7
	cfg.Mechanism = mech
	return Job{
		Kind:      Synthetic,
		Config:    cfg,
		Pattern:   traffic.Uniform,
		Rate:      rate,
		Frac:      frac,
		Mechanism: mech,
		MaskSeed:  99,
	}
}

func TestJobHashDeterministic(t *testing.T) {
	a := quickJob(config.GFLOV, 0.02, 0.5)
	b := quickJob(config.GFLOV, 0.02, 0.5)
	if a.Hash() != b.Hash() {
		t.Fatalf("equal jobs hash differently: %s vs %s", a.Hash(), b.Hash())
	}
	if len(a.Hash()) != 64 {
		t.Fatalf("hash is not hex sha256: %q", a.Hash())
	}
}

func TestJobHashSensitivity(t *testing.T) {
	base := quickJob(config.GFLOV, 0.02, 0.5)
	mutations := map[string]Job{}

	j := base
	j.Rate = 0.03
	mutations["rate"] = j

	j = base
	j.Frac = 0.6
	mutations["frac"] = j

	j = base
	j.Mechanism = config.RP
	mutations["mechanism"] = j

	j = base
	j.MaskSeed++
	mutations["mask seed"] = j

	j = base
	j.Config.Seed++
	mutations["config seed"] = j

	j = base
	j.Config.WakeupLatency = 40
	mutations["config knob"] = j

	j = base
	j.Pattern = traffic.Tornado
	mutations["pattern"] = j

	j = base
	j.Protect = []int{0}
	mutations["protect"] = j

	for name, m := range mutations {
		if m.Hash() == base.Hash() {
			t.Errorf("changing %s did not change the hash", name)
		}
	}
}

func TestJobJSONRoundTrip(t *testing.T) {
	prof, _ := trace.ProfileByName("canneal")
	jobs := []Job{
		quickJob(config.RFLOV, 0.08, 0.3),
		{
			Kind:      PARSEC,
			Config:    config.FullSystem(),
			Mechanism: config.RP,
			Profile:   prof,
			Seed:      11,
			MaxCycles: 123,
		},
	}
	for _, j := range jobs {
		data, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		var back Job
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back.Hash() != j.Hash() {
			t.Errorf("round trip changed the job:\n  in:  %+v\n  out: %+v", j, back)
		}
	}
}

// TestJobCanonicalIsMarshal: the hash preimage is exactly the bytes
// json.Marshal renders for the job, for every field shape a job can
// carry, so hashing without the Marshaler pass orphans no cache entry
// written by a build that hashed json.Marshal(j).
func TestJobCanonicalIsMarshal(t *testing.T) {
	prefix := SchemaVersion + "|" + snapSchemaVersion + "|" + versionToken + "|"
	rich := quickJob(config.GFLOV, 0.05, 0.25)
	rich.Pattern = traffic.Hotspot
	rich.Protect = []int{0, 3}
	rich.Hotspots = []int{5, 10}
	rich.Faults = &fault.Spec{Seed: 3, LinkRate: 1e-4, Schedule: []fault.Event{
		{At: 100, Kind: "link", Node: 5, Dir: "E", Transient: 40},
		{At: 200, Kind: "router", Node: 9},
	}}
	cases := map[string]Job{"synthetic with protect, hotspots and faults": rich}
	for _, p := range traffic.Patterns() {
		j := quickJob(config.RP, 0.02, 0.5)
		j.Pattern = p
		cases["pattern "+p.String()] = j
	}
	parsec, err := (Spec{Benchmarks: []string{"dedup"}, Mechanisms: []string{"gflov"}}).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	cases["parsec"] = parsec[0]
	for name, j := range cases {
		want, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		if got := j.canonical(); string(got) != string(want) {
			t.Errorf("%s: canonical encoding differs from json.Marshal:\n%s\n%s", name, got, want)
		}
		if sum := sha256.Sum256(append([]byte(prefix), want...)); j.Hash() != hex.EncodeToString(sum[:]) {
			t.Errorf("%s: Hash is not SHA-256 of the versions and json.Marshal(j)", name)
		}
	}
}

// TestJobCanonicalPinned pins one job's canonical encoding (without the
// version prefix, which differs between builds). Any change to it
// orphans every cache entry and warm blob, so update the literal only
// when that is intended (a new Config field, say).
func TestJobCanonicalPinned(t *testing.T) {
	j := quickJob(config.GFLOV, 0.02, 0.5)
	j.Protect = []int{0, 5}
	sum := sha256.Sum256(j.canonical())
	const want = "28edd7966dc039e5d0c6c55cad4df37eb6209267dae617a11525114cfef4855f"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("canonical encoding hash = %s, want %s\n%s", got, want, j.canonical())
	}
}

func TestJobJSONSymbolicNames(t *testing.T) {
	data, err := json.Marshal(quickJob(config.GFLOV, 0.02, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind":"synthetic"`, `"pattern":"uniform"`, `"mechanism":"gFLOV"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("job JSON missing %s:\n%s", want, data)
		}
	}
}

func TestJobRunReportsErrors(t *testing.T) {
	j := quickJob(config.GFLOV, 0.02, 0.5)
	j.Config.Width = 0 // invalid mesh
	r := j.Run()
	if r.Err == "" {
		t.Fatal("invalid config produced no error")
	}
	if r.CacheHit {
		t.Fatal("fresh run marked as cache hit")
	}
}

func TestSpecExpansion(t *testing.T) {
	s := Spec{
		Patterns:   []string{"uniform", "tornado"},
		Rates:      []float64{0.02, 0.08},
		GatedFracs: []float64{0, 0.5},
		Mechanisms: []string{"baseline", "gflov"},
		Width:      4, Height: 4,
		Cycles: 4000, Warmup: 500,
		Seed: 3,
	}
	jobs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2*2*2*2 {
		t.Fatalf("expected 16 jobs, got %d", len(jobs))
	}
	// Deterministic order: pattern x rate x frac x mechanism.
	if jobs[0].Pattern != traffic.Uniform || jobs[0].Mechanism != config.Baseline {
		t.Errorf("unexpected first job: %s", jobs[0].Desc())
	}
	if jobs[1].Mechanism != config.GFLOV {
		t.Errorf("mechanism should vary fastest, got %s", jobs[1].Desc())
	}
	last := jobs[len(jobs)-1]
	if last.Pattern != traffic.Tornado || last.Frac != 0.5 {
		t.Errorf("unexpected last job: %s", last.Desc())
	}
	for _, j := range jobs {
		if j.Config.Width != 4 || j.Config.TotalCycles != 4000 || j.Config.Seed != 3 {
			t.Fatalf("overrides not applied: %+v", j.Config)
		}
	}
}

// TestReadJobs pins the submission decoder both serving planes share:
// bounded body, wrapped parse errors, and a point-list identity under
// which two spellings of the same grid coincide.
func TestReadJobs(t *testing.T) {
	terse, err := ReadJobs(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	spelled, err := ReadJobs(strings.NewReader(
		`{"patterns":["uniform"],"rates":[0.02],"gated_fractions":[0.5],"mechanisms":["all"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if PointsHash(terse) != PointsHash(spelled) {
		t.Error("two spellings of one grid hash differently")
	}
	if PointsHash(terse[:1]) == PointsHash(terse) {
		t.Error("different point lists share a hash")
	}

	for body, want := range map[string]string{
		`{"rates":`:                         "parse spec: ",
		`{"mechanisms":["x"]}`:              "unknown mechanism",
		strings.Repeat(" ", MaxSpecBytes+1): fmt.Sprintf("spec larger than %d bytes", MaxSpecBytes),
	} {
		if _, err := ReadJobs(strings.NewReader(body)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ReadJobs(%.20q) = %v, want error containing %q", body, err, want)
		}
	}
}

// TestSpecPointCap: a spec expands to at most MaxSpecPoints points, and
// one point more is refused before any job is built.
func TestSpecPointCap(t *testing.T) {
	atCap := Spec{Rates: make([]float64, 256), GatedFracs: make([]float64, 64), Mechanisms: []string{"all"}}
	jobs, err := atCap.Jobs()
	if err != nil || len(jobs) != MaxSpecPoints {
		t.Fatalf("spec at the cap: %d jobs, %v; want %d", len(jobs), err, MaxSpecPoints)
	}
	body, err := json.Marshal(oversizedSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("more than %d points", MaxSpecPoints)
	if _, err := ReadJobs(bytes.NewReader(body)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("spec one point over the cap: %v, want error containing %q", err, want)
	}
	parsec := Spec{Benchmarks: make([]string, MaxSpecPoints/4+1), Mechanisms: []string{"all"}}
	if _, err := parsec.Jobs(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("PARSEC spec over the cap: %v, want error containing %q", err, want)
	}
}

// oversizedSpec expands to exactly one point more than MaxSpecPoints.
func oversizedSpec() Spec {
	return Spec{Rates: make([]float64, MaxSpecPoints+1), Mechanisms: []string{"gflov"}}
}

func TestSpecPARSEC(t *testing.T) {
	s := Spec{Benchmarks: []string{"all"}, Mechanisms: []string{"gflov"}}
	jobs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(trace.Profiles()) {
		t.Fatalf("expected %d jobs, got %d", len(trace.Profiles()), len(jobs))
	}
	for _, j := range jobs {
		if j.Kind != PARSEC || j.Profile.Name == "" {
			t.Fatalf("bad PARSEC job: %+v", j)
		}
	}
	if _, err := (Spec{Benchmarks: []string{"nope"}}).Jobs(); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := (Spec{Mechanisms: []string{"nope"}}).Jobs(); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
	if _, err := (Spec{Patterns: []string{"nope"}}).Jobs(); err == nil {
		t.Fatal("unknown pattern accepted")
	}
}
