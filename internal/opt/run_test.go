package opt

import (
	"bytes"
	"context"
	"testing"

	"flov/internal/sweep"
)

// tinySpec is the shared fast search: a 4x4 mesh, short runs, a mixed
// space small enough that three generations finish in well under a
// second but large enough that the strategies actually search.
func tinySpec(strategy string) Spec {
	return Spec{
		Space: Space{
			Widths: []int{4}, Heights: []int{4},
			VCs: []int{1, 2}, Buffers: []int{4, 6},
			Mechanisms: []string{"baseline", "gflov"},
			GatedFracs: []float64{0, 0.5},
			Rates:      []float64{0.05},
		},
		Strategy:    strategy,
		Generations: 3,
		Population:  6,
		Seed:        7,
		Cycles:      1200,
		Warmup:      300,
	}
}

func mustRun(t *testing.T, spec Spec, opts Options) Outcome {
	t.Helper()
	out, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunDeterministic runs every strategy twice from scratch and
// demands byte-identical CSV and JSON fronts — the invariant the CI
// smoke job also checks across two separate processes.
func TestRunDeterministic(t *testing.T) {
	for _, strategy := range Strategies() {
		t.Run(strategy, func(t *testing.T) {
			a := mustRun(t, tinySpec(strategy), Options{})
			b := mustRun(t, tinySpec(strategy), Options{})
			var csvA, csvB, jsonA, jsonB bytes.Buffer
			if err := a.FrontCSV(&csvA); err != nil {
				t.Fatal(err)
			}
			if err := b.FrontCSV(&csvB); err != nil {
				t.Fatal(err)
			}
			if err := a.FrontJSON(&jsonA); err != nil {
				t.Fatal(err)
			}
			if err := b.FrontJSON(&jsonB); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(csvA.Bytes(), csvB.Bytes()) {
				t.Errorf("CSV fronts differ:\n%s\nvs\n%s", csvA.String(), csvB.String())
			}
			if !bytes.Equal(jsonA.Bytes(), jsonB.Bytes()) {
				t.Error("JSON fronts differ")
			}
			if len(a.Front) == 0 {
				t.Error("empty front")
			}
			if a.Asked != 18 { // 3 generations x population 6
				t.Errorf("asked %d candidates, want 18", a.Asked)
			}
			for _, p := range a.Front {
				if p.Res.Packets == 0 {
					t.Errorf("front point %v carries no results", p.Genome)
				}
				if len(p.Scores) != 2 {
					t.Errorf("front point %v has %d scores", p.Genome, len(p.Scores))
				}
			}
		})
	}
}

// TestRunCacheHitsOnRerun re-runs a spec against the same cache and
// checks that every engine evaluation is served from disk.
func TestRunCacheHitsOnRerun(t *testing.T) {
	cache, err := sweep.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := mustRun(t, tinySpec("nsga2"), Options{Cache: cache})
	if first.Simulated == 0 {
		t.Fatal("first run simulated nothing")
	}
	if first.CacheHits != 0 {
		t.Fatalf("first run hit the fresh cache %d times", first.CacheHits)
	}
	second := mustRun(t, tinySpec("nsga2"), Options{Cache: cache})
	if second.CacheHits != second.Simulated {
		t.Fatalf("re-run: %d of %d engine evaluations cache-hit, want all",
			second.CacheHits, second.Simulated)
	}
	if second.Simulated != first.Simulated {
		t.Fatalf("re-run evaluated %d points, first run %d — search not deterministic",
			second.Simulated, first.Simulated)
	}
}

// TestRunResume cancels a search after its first generation, then
// re-runs it against the same cache: the resumed front must be
// byte-identical to an uninterrupted cache-less run, and every
// candidate the interrupted run simulated must come back from disk.
func TestRunResume(t *testing.T) {
	spec := tinySpec("anneal")
	full := mustRun(t, spec, Options{})

	cache, err := sweep.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted, err := Run(ctx, spec, Options{Cache: cache, Progress: func(ev Event) {
		if ev.Gen == 0 {
			cancel()
		}
	}})
	if err == nil {
		t.Fatal("interrupted run reported no error")
	}
	if interrupted.Generations != 1 || interrupted.Simulated == 0 {
		t.Fatalf("interrupted run: %d generations, %d simulated; want 1 generation with work",
			interrupted.Generations, interrupted.Simulated)
	}

	resumed := mustRun(t, spec, Options{Cache: cache})
	// Failed evaluations are never cached, so they re-simulate.
	if want := interrupted.Simulated - interrupted.Infeasible; resumed.CacheHits != want {
		t.Fatalf("resume: %d cache hits, want %d (every candidate the interrupted run finished)",
			resumed.CacheHits, want)
	}
	if resumed.Simulated != full.Simulated {
		t.Fatalf("resume evaluated %d candidates, uninterrupted run %d", resumed.Simulated, full.Simulated)
	}
	// The disk-hit count is the one execution detail the JSON outcome
	// carries; everything else, the front included, must match.
	resumed.CacheHits = full.CacheHits
	var csvA, csvB, jsonA, jsonB bytes.Buffer
	for _, err := range []error{
		full.FrontCSV(&csvA), resumed.FrontCSV(&csvB),
		full.FrontJSON(&jsonA), resumed.FrontJSON(&jsonB),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(csvA.Bytes(), csvB.Bytes()) {
		t.Fatalf("resumed CSV front differs:\n%s\nvs\n%s", csvA.String(), csvB.String())
	}
	if !bytes.Equal(jsonA.Bytes(), jsonB.Bytes()) {
		t.Fatal("resumed JSON front differs")
	}
}

func TestRunEmitsEvents(t *testing.T) {
	var events []Event
	spec := tinySpec("random")
	out := mustRun(t, spec, Options{Progress: func(ev Event) { events = append(events, ev) }})
	if len(events) != spec.Generations {
		t.Fatalf("got %d events, want %d", len(events), spec.Generations)
	}
	for i, ev := range events {
		if ev.Gen != i || ev.Generations != spec.Generations {
			t.Errorf("event %d misnumbered: %+v", i, ev)
		}
		if ev.Asked != spec.Population {
			t.Errorf("event %d asked %d, want %d", i, ev.Asked, spec.Population)
		}
		if ev.Simulated+ev.Reused != ev.Asked {
			t.Errorf("event %d: simulated %d + reused %d != asked %d",
				i, ev.Simulated, ev.Reused, ev.Asked)
		}
	}
	if events[len(events)-1].Front != len(out.Front) {
		t.Errorf("last event front %d != outcome front %d",
			events[len(events)-1].Front, len(out.Front))
	}
}

func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := Run(ctx, tinySpec("nsga2"), Options{})
	if err == nil {
		t.Fatal("canceled run reported no error")
	}
	if out.Generations != 0 {
		t.Fatalf("canceled run claims %d generations", out.Generations)
	}
}

func TestRunRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Space: Space{Widths: []int{1}}},
		{Objectives: []string{"energy_per_flit"}},
		{Strategy: "nope"},
	}
	for i, s := range bad {
		if _, err := Run(context.Background(), s, Options{}); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestFrontPlotRenders(t *testing.T) {
	out := mustRun(t, tinySpec("random"), Options{})
	plot := out.FrontPlot(40, 10)
	if plot == "" || !bytes.Contains([]byte(plot), []byte("energy_per_flit")) {
		t.Fatalf("plot missing axis label:\n%s", plot)
	}
	a, b := out.FrontPlot(40, 10), out.FrontPlot(40, 10)
	if a != b {
		t.Fatal("plot not deterministic")
	}
}

// BenchmarkOptimize is the committed-baseline benchmark for the
// optimizer loop: a full tiny search, uncached, dominated by the
// candidate simulations it schedules.
func BenchmarkOptimize(b *testing.B) {
	spec := tinySpec("nsga2")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), spec, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
