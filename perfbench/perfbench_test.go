package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// runPair runs one untraced and one traced op of w at defaultSeed and
// returns the traced run's per-layer metrics. Both ops must succeed and
// reproduce the committed golden digest, so the probes cannot change
// what the program computes.
func runPair(t *testing.T, name string, w workload) map[string]float64 {
	t.Helper()
	plain, _, err := w.op(nil)
	if err != nil {
		t.Fatalf("%s: untraced op: %v", name, err)
	}
	p := newProbes()
	traced, _, err := w.op(p)
	if err != nil {
		t.Fatalf("%s: traced op: %v", name, err)
	}
	for _, out := range []outcome{plain, traced} {
		if out.fail != "" {
			t.Errorf("%s: op failed: %s", name, out.fail)
		}
	}
	if traced.digest != plain.digest {
		t.Errorf("%s: traced digest %s != untraced %s", name, traced.digest, plain.digest)
	}
	if plain.digest != golden[name] {
		t.Errorf("%s: digest %s, golden %s", name, plain.digest, golden[name])
	}
	m, err := w.layerMetrics(p)
	if err != nil {
		t.Fatalf("%s: layer metrics: %v", name, err)
	}
	return m
}

// TestKernelRegimes pins each simulation workload to the layer it is
// meant to load: lowload mostly asleep, saturation never asleep and
// fully drained, parsec gating dynamically.
func TestKernelRegimes(t *testing.T) {
	for _, name := range []string{"lowload", "saturation", "parsec"} {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, defaultSeed, t.TempDir(), true)
			if err != nil {
				t.Fatal(err)
			}
			m := runPair(t, name, w)
			switch name {
			case "lowload":
				if m["core.sleep_frac"] < 0.5 {
					t.Errorf("lowload sleep_frac = %.3f, want >= 0.5", m["core.sleep_frac"])
				}
			case "saturation":
				// runPair already failed the op on any undelivered flit.
				if m["core.sleep_frac"] != 0 {
					t.Errorf("saturation sleep_frac = %v, want 0", m["core.sleep_frac"])
				}
			case "parsec":
				if m["core.transitions"] <= 0 {
					t.Errorf("parsec transitions = %v, want > 0", m["core.transitions"])
				}
			}
			if m["traffic.packets"] <= 0 || m["router.flit_hops"] <= 0 {
				t.Errorf("%s: no traffic recorded: %v", name, m)
			}
		})
	}
}

// TestServeAllCacheHits pins the serve workload to a warm daemon: after
// the cold fill every point of every op is a cache hit.
func TestServeAllCacheHits(t *testing.T) {
	w, err := newServe(t.TempDir(), defaultSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := w.close(); err != nil {
			t.Error(err)
		}
	}()
	if _, err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	m := runPair(t, "serve", w)
	if m["sweep.cache_hit_ratio"] != 1 {
		t.Errorf("cache hit ratio = %v, want 1", m["sweep.cache_hit_ratio"])
	}
	if m["service.stream_bytes"] <= 0 {
		t.Errorf("stream bytes = %v, want > 0", m["service.stream_bytes"])
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's declared workloads and
// metrics in step with what a run reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		if _, err := newWorkload(wl.Name, defaultSeed, t.TempDir(), false); err != nil {
			t.Errorf("declared workload: %v", err)
		}
		if golden[wl.Name] == "" {
			t.Errorf("workload %s has no golden digest", wl.Name)
		}
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, runs report %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: declared %s (%s), reported %s (%s)", kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
