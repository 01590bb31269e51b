package benchgate

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `
goos: linux
goarch: amd64
pkg: flov
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkStep 	    2000	     16110 ns/op	      55 B/op	       1 allocs/op
BenchmarkSweepSequential-8   	       2	 600103562 ns/op	        13.09 Mcyc/s	 8160952 B/op	   95690 allocs/op
BenchmarkSweepParallel-8     	       3	 400918200 ns/op	        19.33 Mcyc/s	 8163229 B/op	   95712 allocs/op
BenchmarkTable1Config-8      	  150000	      8012 ns/op
PASS
ok  	flov	4.523s
`

func TestParseBench(t *testing.T) {
	got, err := ParseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("want 4 benchmarks, got %d: %v", len(got), got)
	}
	step := got["BenchmarkStep"]
	if step.NsPerOp != 16110 || step.BytesPerOp != 55 || step.AllocsPerOp != 1 || !step.AllocsSet {
		t.Errorf("BenchmarkStep parsed wrong: %+v", step)
	}
	// The -8 GOMAXPROCS suffix is stripped; the custom Mcyc/s metric is
	// skipped without derailing the B/op and allocs/op columns after it.
	seq := got["BenchmarkSweepSequential"]
	if seq.AllocsPerOp != 95690 || seq.BytesPerOp != 8160952 {
		t.Errorf("suffix/custom-metric handling broke: %+v", seq)
	}
	// No -benchmem on Table1Config: ns/op only, AllocsSet false.
	if cfg := got["BenchmarkTable1Config"]; cfg.AllocsSet || cfg.NsPerOp != 8012 {
		t.Errorf("benchmem-less line parsed wrong: %+v", cfg)
	}
}

// TestParseBenchMedian checks that several -count runs of one benchmark
// reduce to the per-metric median, whatever order they arrive in, and
// that an even count takes the mean of the middle two.
func TestParseBenchMedian(t *testing.T) {
	const out = `
BenchmarkStep-2   	   20000	      4400 ns/op	      40 B/op	       1 allocs/op
BenchmarkStep-2   	   20000	      9000 ns/op	      10 B/op	       0 allocs/op
BenchmarkStep-2   	   20000	      4200 ns/op	      20 B/op	       1 allocs/op
BenchmarkStep-2   	   20000	      4300 ns/op	      30 B/op	       5 allocs/op
BenchmarkStep-2   	   20000	      1000 ns/op	      50 B/op	       1 allocs/op
BenchmarkSweep-2  	       2	       100 ns/op	       1 B/op	       3 allocs/op
BenchmarkSweep-2  	       2	       300 ns/op	       3 B/op	       5 allocs/op
BenchmarkCfg-2    	     100	        10 ns/op
BenchmarkCfg-2    	     100	        20 ns/op	       1 B/op	       1 allocs/op
BenchmarkCfg-2    	     100	        30 ns/op
`
	got, err := ParseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Result{
		"BenchmarkStep":  {NsPerOp: 4300, BytesPerOp: 30, AllocsPerOp: 1, AllocsSet: true},
		"BenchmarkSweep": {NsPerOp: 200, BytesPerOp: 2, AllocsPerOp: 4, AllocsSet: true},
		// Only one of three runs had -benchmem: allocs/op is not set.
		"BenchmarkCfg": {NsPerOp: 20, AllocsSet: false},
	}
	if len(got) != len(want) {
		t.Fatalf("want %d benchmarks, got %v", len(want), got)
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
}

// base returns a two-benchmark baseline: a zero-alloc kernel and an
// allocating sweep.
func base() *Baseline {
	return &Baseline{Benchmarks: map[string]Result{
		"BenchmarkStep":  {NsPerOp: 16000, AllocsPerOp: 1, AllocsSet: true},
		"BenchmarkSweep": {NsPerOp: 1e8, AllocsPerOp: 100000, AllocsSet: true},
	}}
}

func TestCompareCatchesAllocRegression(t *testing.T) {
	current := map[string]Result{
		// +3 allocs/op on a 1-alloc baseline: past ratio 1.10 + slack 2.
		"BenchmarkStep":  {NsPerOp: 16500, AllocsPerOp: 4, AllocsSet: true},
		"BenchmarkSweep": {NsPerOp: 1.2e8, AllocsPerOp: 100100, AllocsSet: true},
	}
	deltas, missing := Compare(base(), current, DefaultLimits())
	if len(missing) != 0 {
		t.Fatalf("nothing should be missing: %v", missing)
	}
	if len(deltas) != 2 {
		t.Fatalf("want 2 deltas, got %d", len(deltas))
	}
	var step, sweep *Delta
	for i := range deltas {
		switch deltas[i].Name {
		case "BenchmarkStep":
			step = &deltas[i]
		case "BenchmarkSweep":
			sweep = &deltas[i]
		}
	}
	if !step.Regressed() || !strings.Contains(step.Verdicts[0], "allocs/op regressed") {
		t.Errorf("1 -> 4 allocs/op must regress, got %+v", step.Verdicts)
	}
	// 100000 -> 100100 is within the 10% ratio; 1.2x ns/op is within 4x.
	if sweep.Regressed() {
		t.Errorf("sweep within headroom should pass, got %+v", sweep.Verdicts)
	}
}

func TestCompareCatchesTimeRegression(t *testing.T) {
	current := map[string]Result{
		"BenchmarkStep":  {NsPerOp: 16000 * 5, AllocsPerOp: 1, AllocsSet: true},
		"BenchmarkSweep": {NsPerOp: 1e8, AllocsPerOp: 100000, AllocsSet: true},
	}
	deltas, _ := Compare(base(), current, DefaultLimits())
	for _, d := range deltas {
		if d.Name == "BenchmarkStep" {
			if !d.Regressed() || !strings.Contains(d.Verdicts[0], "ns/op regressed") {
				t.Fatalf("5x ns/op must regress past the 4x limit, got %+v", d.Verdicts)
			}
			return
		}
	}
	t.Fatal("BenchmarkStep delta missing")
}

func TestCompareImprovementAndMissing(t *testing.T) {
	current := map[string]Result{
		// Faster and leaner: never a failure.
		"BenchmarkStep": {NsPerOp: 9000, AllocsPerOp: 0, AllocsSet: true},
		// A benchmark not in the baseline is ignored.
		"BenchmarkNew": {NsPerOp: 5, AllocsPerOp: 0, AllocsSet: true},
	}
	deltas, missing := Compare(base(), current, DefaultLimits())
	for _, d := range deltas {
		if d.Regressed() {
			t.Errorf("improvement flagged as regression: %+v", d)
		}
	}
	if len(missing) != 1 || missing[0] != "BenchmarkSweep" {
		t.Errorf("want BenchmarkSweep reported missing, got %v", missing)
	}
}

func TestCompareDemandsBenchmem(t *testing.T) {
	current := map[string]Result{
		"BenchmarkStep":  {NsPerOp: 16000},
		"BenchmarkSweep": {NsPerOp: 1e8},
	}
	deltas, _ := Compare(base(), current, DefaultLimits())
	for _, d := range deltas {
		if !d.Regressed() || !strings.Contains(d.Verdicts[0], "-benchmem") {
			t.Errorf("baselined allocs with no current allocs must fail, got %+v", d.Verdicts)
		}
	}
}

func TestBaselineRoundTripAndReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sweep.json")
	want := base()
	want.Note = "recorded on CI runner X"
	if err := Append(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Note != want.Note || len(got.Benchmarks) != 2 {
		t.Fatalf("round trip mangled baseline: %+v", got)
	}
	if got.Benchmarks["BenchmarkStep"] != want.Benchmarks["BenchmarkStep"] {
		t.Errorf("result mangled: %+v", got.Benchmarks["BenchmarkStep"])
	}

	deltas, missing := Compare(got, map[string]Result{
		"BenchmarkStep": {NsPerOp: 16000, AllocsPerOp: 10, AllocsSet: true},
	}, DefaultLimits())
	out := Report(deltas, missing)
	for _, want := range []string{"REGRESSED", "allocs/op regressed (1 -> 10", "BenchmarkSweep", "MISSING"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := Append(path, base()); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing baseline should error (the gate must not silently pass)")
	}
	for _, bad := range []string{`{"note": "x", "benchmarks": {}}`, `not json`} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("Load accepted %q: a file without a history must not pass the gate", bad)
		}
	}
}

// Append keeps every recording, dated, and the gate reads the latest. A
// partial re-record carries the benchmarks it lacks forward.
func TestAppendKeepsHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sweep.json")
	first := base()
	first.Date = "2026-01-02"
	if err := Append(path, first); err != nil {
		t.Fatal(err)
	}
	second := &Baseline{Date: "2026-03-04", Note: "faster kernel", Benchmarks: map[string]Result{
		"BenchmarkStep": {NsPerOp: 8000, AllocsPerOp: 0, AllocsSet: true},
	}}
	if err := Append(path, second); err != nil {
		t.Fatal(err)
	}
	h, err := LoadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 2 || h[0].Date != "2026-01-02" || h[1].Date != "2026-03-04" {
		t.Fatalf("history = %+v, want the two recordings in order", h)
	}
	if h[0].Benchmarks["BenchmarkStep"].NsPerOp != 16000 {
		t.Errorf("the older recording changed: %+v", h[0].Benchmarks)
	}
	latest, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if latest.Note != "faster kernel" || latest.Benchmarks["BenchmarkStep"].NsPerOp != 8000 {
		t.Errorf("Load returned %+v, want the latest recording", latest)
	}
	if latest.Benchmarks["BenchmarkSweep"] != first.Benchmarks["BenchmarkSweep"] {
		t.Errorf("partial re-record dropped BenchmarkSweep: %+v", latest.Benchmarks)
	}
}
