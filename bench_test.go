// Benchmarks regenerating every table and figure of the paper's
// evaluation, one testing.B benchmark per experiment. Each benchmark
// reports the figure's headline metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the whole evaluation. Benchmarks run the reduced (quick) scale
// by default so the full suite stays minutes, not hours; cmd/figures
// runs full scale.
package flov_test

import (
	"context"
	"fmt"
	"testing"

	"flov"
	"flov/internal/config"
	"flov/internal/core"
	"flov/internal/experiments"
	"flov/internal/gating"
	"flov/internal/network"
	"flov/internal/sim"
	"flov/internal/topology"
	"flov/internal/traffic"
)

// quickOpts is the reduced-scale option set shared by all benches.
var quickOpts = experiments.Options{Quick: true, Seed: 42}

// BenchmarkTable1Config exercises the Table I configuration: build and
// validate the default and full-system configs.
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := flov.Default()
		if err := cfg.Validate(); err != nil {
			b.Fatal(err)
		}
		fs := flov.FullSystem()
		if err := fs.Validate(); err != nil {
			b.Fatal(err)
		}
		_ = cfg.TableI()
	}
}

// reportSweep reports one figure panel: per-mechanism latency and power
// at a representative gated fraction.
func reportSweep(b *testing.B, rows []experiments.SweepRow, rate, frac float64) {
	b.Helper()
	for _, r := range rows {
		if r.Rate == rate && r.Frac == frac {
			b.ReportMetric(r.AvgLatency, "lat_"+r.Mechanism)
			b.ReportMetric(r.TotalPowerW*1e3, "mWtot_"+r.Mechanism)
		}
		if r.Undelivered != 0 {
			b.Fatalf("%s/%s rate=%.2f frac=%.1f: %d undelivered flits",
				r.Mechanism, r.Pattern, r.Rate, r.Frac, r.Undelivered)
		}
	}
}

// BenchmarkFig6UniformLatencyPower regenerates Fig. 6: uniform random
// traffic, average latency + dynamic/total power across the gated sweep
// at 0.02 and 0.08 flits/cycle/node.
func BenchmarkFig6UniformLatencyPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.LatencyPowerSweep(traffic.Uniform, quickOpts)
		if err != nil {
			b.Fatal(err)
		}
		reportSweep(b, rows, 0.02, 0.5)
	}
}

// BenchmarkFig7TornadoLatencyPower regenerates Fig. 7 (tornado traffic).
func BenchmarkFig7TornadoLatencyPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.LatencyPowerSweep(traffic.Tornado, quickOpts)
		if err != nil {
			b.Fatal(err)
		}
		reportSweep(b, rows, 0.02, 0.5)
	}
}

// BenchmarkFig8BreakdownUniform regenerates Fig. 8 (a): the latency
// decomposition under uniform random traffic.
func BenchmarkFig8BreakdownUniform(b *testing.B) {
	benchBreakdown(b, traffic.Uniform)
}

// BenchmarkFig8BreakdownTornado regenerates Fig. 8 (b).
func BenchmarkFig8BreakdownTornado(b *testing.B) {
	benchBreakdown(b, traffic.Tornado)
}

func benchBreakdown(b *testing.B, p traffic.Pattern) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.BreakdownSweep(p, quickOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Frac == 0.5 && r.Mechanism == "gFLOV" {
				b.ReportMetric(r.Breakdown.Router, "router_cyc")
				b.ReportMetric(r.Breakdown.FLOV, "flov_cyc")
				b.ReportMetric(r.Breakdown.Contention, "contention_cyc")
			}
		}
	}
}

// BenchmarkFig9StaticPower regenerates Fig. 9: static power vs the
// fraction of power-gated cores for all four mechanisms.
func BenchmarkFig9StaticPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.StaticPowerSweep(quickOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Frac == 0.8 {
				b.ReportMetric(r.StaticPowerW*1e3, "mWstat80_"+r.Mechanism)
			}
		}
	}
}

// BenchmarkFig10Reconfig regenerates Fig. 10: the latency timeline around
// gating changes, RP (network-stall reconfiguration) vs gFLOV.
func BenchmarkFig10Reconfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ReconfigTimeline(
			[]config.Mechanism{config.RP, config.GFLOV}, quickOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.PeakTimelineLatency(rows, "RP", 0), "peak_RP")
		b.ReportMetric(experiments.PeakTimelineLatency(rows, "gFLOV", 0), "peak_gFLOV")
	}
}

// BenchmarkFig8ParsecEnergy regenerates Figs. 8 (c)/(d) and the headline
// claims: normalized static energy and runtime across the nine
// PARSEC-substitute benchmarks.
func BenchmarkFig8ParsecEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ParsecSweep(quickOpts)
		if err != nil {
			b.Fatal(err)
		}
		h := experiments.Summarize(rows)
		b.ReportMetric(h.StaticVsBaselinePct, "%statvsBase")
		b.ReportMetric(h.RuntimeVsBasePct, "%runtimevsBase")
		b.ReportMetric(h.StaticVsRPPct, "%statvsRP")
		b.ReportMetric(h.TotalVsRPPct, "%totvsRP")
	}
}

// BenchmarkSingleGFLOVRun measures raw simulator throughput: cycles per
// second for one gFLOV configuration (useful when optimizing the kernel).
func BenchmarkSingleGFLOVRun(b *testing.B) {
	cfg := flov.Default()
	cfg.TotalCycles = 20_000
	cfg.WarmupCycles = 2_000
	for i := 0; i < b.N; i++ {
		res, err := flov.RunSynthetic(flov.SyntheticOptions{
			Config: cfg, Mechanism: flov.GFLOV, Pattern: flov.Uniform,
			InjRate: 0.02, GatedFraction: 0.5, GatedSeed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Undelivered != 0 {
			b.Fatal("undelivered flits")
		}
	}
	b.ReportMetric(float64(cfg.TotalCycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// Example of the per-mechanism ablation the DESIGN.md calls out: how the
// FLOV idle threshold changes sleep aggressiveness (and therefore power).
func BenchmarkAblationIdleThreshold(b *testing.B) {
	for _, thr := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("thr%d", thr), func(b *testing.B) {
			cfg := flov.Default()
			cfg.IdleThreshold = thr
			cfg.TotalCycles = 20_000
			cfg.WarmupCycles = 2_000
			for i := 0; i < b.N; i++ {
				res, err := flov.RunSynthetic(flov.SyntheticOptions{
					Config: cfg, Mechanism: flov.GFLOV, Pattern: flov.Uniform,
					InjRate: 0.02, GatedFraction: 0.5, GatedSeed: 42,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.StaticPowerW*1e3, "mWstat")
			}
		})
	}
}

// benchSweepJobs is the fixed grid shared by the sweep-engine
// benchmarks: all four mechanisms at two gated fractions.
func benchSweepJobs(b *testing.B) []flov.SweepJob {
	b.Helper()
	cfg := flov.Default()
	cfg.TotalCycles = 10_000
	cfg.WarmupCycles = 1_000
	var jobs []flov.SweepJob
	for _, m := range flov.AllMechanisms() {
		for _, frac := range []float64{0, 0.5} {
			j, err := flov.SyntheticJob(flov.SyntheticOptions{
				Config: cfg, Mechanism: m, Pattern: flov.Uniform,
				InjRate: 0.02, GatedFraction: frac, GatedSeed: 42,
			})
			if err != nil {
				b.Fatal(err)
			}
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// BenchmarkStep measures the bare cycle kernel: one warmed-up gFLOV
// network, one Step call per iteration, nothing else. allocs/op here is
// the number the hotalloc analyzer polices statically and the committed
// BENCH_sweep.json baseline gates in CI.
func BenchmarkStep(b *testing.B) { benchStep(b, 0.02, 0.5) }

// BenchmarkStepSaturation is BenchmarkStep just below the saturation
// knee with no core gated: no router sleeps and few are idle, so it
// gates the busy pipeline that BenchmarkStep's low-load regime mostly
// skips.
func BenchmarkStepSaturation(b *testing.B) { benchStep(b, 0.34, 0) }

// benchStep times one Step of a warmed-up gFLOV network under uniform
// traffic at the given rate with the given fraction of cores gated.
func benchStep(b *testing.B, rate, gated float64) {
	cfg := flov.Default()
	mesh, err := topology.NewMesh(cfg.Width, cfg.Height)
	if err != nil {
		b.Fatal(err)
	}
	mask := gating.FractionGated(mesh, gated, nil, sim.NewRNG(42))
	gen := traffic.NewGenerator(traffic.Uniform, mesh, nil)
	n, err := network.New(cfg, core.NewGFLOV(), gating.Static(mask), gen, rate)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2_000; i++ { // reach steady state: queues and scratch warm
		n.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
}

func benchSweep(b *testing.B, workers int) {
	jobs := benchSweepJobs(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		results, stats, err := flov.RunSweep(context.Background(), jobs,
			flov.SweepOptions{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != "" {
				b.Fatal(r.Err)
			}
		}
		b.ReportMetric(float64(stats.SimCycles)/1e6/stats.Wall.Seconds(), "Mcyc/s")
	}
}

// BenchmarkSweepSequential runs the grid on one worker: the pre-engine
// baseline the parallel speedup is measured against.
func BenchmarkSweepSequential(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel runs the same grid at GOMAXPROCS workers.
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }

// BenchmarkScalingSweep runs the supplementary mesh-size scaling study
// (4x4 through 16x16) and reports the RP and gFLOV latency penalties over
// Baseline at 16x16.
func BenchmarkScalingSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ScalingSweep(quickOpts)
		if err != nil {
			b.Fatal(err)
		}
		var base, rp, gf float64
		for _, r := range rows {
			if r.Width != 16 {
				continue
			}
			switch r.Mechanism {
			case "Baseline":
				base = r.AvgLatency
			case "RP":
				rp = r.AvgLatency
			case "gFLOV":
				gf = r.AvgLatency
			}
		}
		b.ReportMetric(rp/base, "xRP16")
		b.ReportMetric(gf/base, "xgFLOV16")
	}
}
