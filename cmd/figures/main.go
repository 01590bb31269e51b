// Command figures regenerates every table and figure of the FLOV paper's
// evaluation section as CSV files plus aligned ASCII summaries.
//
// Usage:
//
//	figures -exp all            # every experiment (slow: full cycle counts)
//	figures -exp fig6 -quick    # one experiment at ~5x reduced scale
//	figures -exp table1
//
// Experiments: table1, fig6, fig7, fig8ab, fig8cd, fig9, fig10, headline,
// all. Output goes to -out (default ./results).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"flov/internal/config"
	"flov/internal/experiments"
	"flov/internal/sweep"
	"flov/internal/traffic"
)

// skipped collects failed sweep points across experiments; they are
// reported once at the end instead of aborting whole figures.
var skipped []string

// skip records one failed point.
func skip(figure, desc, err string) {
	if i := strings.IndexByte(err, '\n'); i >= 0 {
		err = err[:i]
	}
	skipped = append(skipped, fmt.Sprintf("%s: %s: %s", figure, desc, err))
}

func main() {
	exp := flag.String("exp", "all", "experiment: table1|fig6|fig7|fig8ab|fig8cd|fig9|fig10|headline|saturation|ablation|scaling|all")
	out := flag.String("out", "results", "output directory for CSV files")
	quick := flag.Bool("quick", false, "reduced cycle counts (~5x faster)")
	seed := flag.Uint64("seed", 42, "seed for gated-core draws")
	workers := flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "sweep result cache directory (default $FLOV_SWEEP_CACHE or the user cache dir)")
	noCache := flag.Bool("no-cache", false, "disable the sweep result cache")
	progress := flag.Bool("progress", false, "print per-point progress to stderr")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	cache, err := sweep.OpenCache(*cacheDir, *noCache)
	if err != nil {
		fatal(err)
	}
	engine := &sweep.Engine{Workers: *workers, Cache: cache}
	if *progress {
		engine.Progress = sweep.NewReporter(os.Stderr)
	}
	o := experiments.Options{Quick: *quick, Seed: *seed, Engine: engine}

	run := func(name string, fn func() error) {
		fmt.Printf("== %s ==\n", name)
		if err := fn(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Println()
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("table1") {
		run("Table I (simulation testbed parameters)", func() error { return table1(*out) })
	}
	if want("fig6") {
		run("Fig. 6 (uniform random: latency, dynamic, total power)", func() error {
			return latencyPower(*out, "fig6", traffic.Uniform, o)
		})
	}
	if want("fig7") {
		run("Fig. 7 (tornado: latency, dynamic, total power)", func() error {
			return latencyPower(*out, "fig7", traffic.Tornado, o)
		})
	}
	if want("fig8ab") {
		run("Fig. 8 (a)/(b) (latency breakdown)", func() error { return breakdown(*out, o) })
	}
	if want("fig9") {
		run("Fig. 9 (static power)", func() error { return staticPower(*out, o) })
	}
	if want("fig10") {
		run("Fig. 10 (reconfiguration overhead timeline)", func() error { return timeline(*out, o) })
	}
	if want("saturation") {
		run("Saturation sweep (latency vs offered load)", func() error { return saturation(*out, o) })
	}
	if want("ablation") {
		run("Ablations (design-knob sweeps)", func() error { return ablation(*out, o) })
	}
	if want("scaling") {
		run("Mesh-size scaling", func() error { return scaling(*out, o) })
	}
	if want("fig8cd") || want("headline") {
		run("Fig. 8 (c)/(d) + headline (PARSEC full-system)", func() error { return parsec(*out, o, want("fig8cd")) })
	}

	if engine.Cache != nil {
		hits, misses, _ := engine.Cache.Counters()
		if hits+misses > 0 {
			fmt.Printf("sweep cache: %d hits, %d misses (%s)\n", hits, misses, engine.Cache.Dir())
		}
	}
	if len(skipped) > 0 {
		fmt.Fprintf(os.Stderr, "\n%d points skipped due to errors:\n", len(skipped))
		for _, s := range skipped {
			fmt.Fprintln(os.Stderr, " ", s)
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}

// writeCSV writes rows (first row = header) to dir/name.
func writeCSV(dir, name string, rows [][]string) error {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows)\n", path, len(rows)-1)
	return nil
}

func table1(dir string) error {
	cfg := config.Default()
	t := cfg.TableI()
	fmt.Print(t)
	return os.WriteFile(filepath.Join(dir, "table1.txt"), []byte(t), 0o644)
}

// liveSweepRows filters failed points out of a sweep, recording them in
// the end-of-run skipped summary.
func liveSweepRows(figure string, rows []experiments.SweepRow) []experiments.SweepRow {
	live := make([]experiments.SweepRow, 0, len(rows))
	for _, r := range rows {
		if r.Err != "" {
			skip(figure, fmt.Sprintf("%s/%s rate=%.3f gated=%.0f%%",
				r.Pattern, r.Mechanism, r.Rate, r.Frac*100), r.Err)
			continue
		}
		live = append(live, r)
	}
	return live
}

func latencyPower(dir, name string, p traffic.Pattern, o experiments.Options) error {
	rows, err := experiments.LatencyPowerSweep(p, o)
	if err != nil {
		return err
	}
	rows = liveSweepRows(name, rows)
	csv := [][]string{{"pattern", "rate", "gated_frac", "mechanism", "avg_latency", "dyn_power_w", "total_power_w", "static_power_w", "gated_routers", "packets"}}
	for _, r := range rows {
		csv = append(csv, []string{
			r.Pattern, f(r.Rate), f(r.Frac), r.Mechanism,
			f(r.AvgLatency), f(r.DynamicPowerW), f(r.TotalPowerW), f(r.StaticPowerW),
			fmt.Sprint(r.GatedRouters), fmt.Sprint(r.Packets),
		})
	}
	if err := writeCSV(dir, name+".csv", csv); err != nil {
		return err
	}
	// ASCII: one block per rate, latency series per mechanism.
	for _, rate := range experiments.DefaultRates {
		fmt.Printf("-- %s, rate %.2f flits/cycle/node: avg latency (cycles) --\n", p, rate)
		printSeries(rows, rate, func(r experiments.SweepRow) float64 { return r.AvgLatency })
		fmt.Printf("-- %s, rate %.2f: total power (mW) --\n", p, rate)
		printSeries(rows, rate, func(r experiments.SweepRow) float64 { return r.TotalPowerW * 1e3 })
	}
	return nil
}

// sameGrid matches a row's rate/fraction against the grid value it was
// built from. The values are copied, never recomputed, so they should
// be bit-identical; the epsilon only guards against an upstream change
// that starts re-deriving them arithmetically.
func sameGrid(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}

// printSeries prints a fraction x mechanism grid for one rate.
func printSeries(rows []experiments.SweepRow, rate float64, get func(experiments.SweepRow) float64) {
	mechs := []string{"Baseline", "RP", "rFLOV", "gFLOV"}
	fmt.Printf("%-10s", "gated%")
	for _, m := range mechs {
		fmt.Printf("%10s", m)
	}
	fmt.Println()
	for _, frac := range experiments.DefaultFractions {
		fmt.Printf("%-10.0f", frac*100)
		for _, m := range mechs {
			v := 0.0
			for _, r := range rows {
				if sameGrid(r.Rate, rate) && sameGrid(r.Frac, frac) && r.Mechanism == m {
					v = get(r)
				}
			}
			fmt.Printf("%10.1f", v)
		}
		fmt.Println()
	}
}

func breakdown(dir string, o experiments.Options) error {
	csv := [][]string{{"pattern", "gated_frac", "mechanism", "router", "link", "serialization", "flov", "contention", "total"}}
	for _, p := range []traffic.Pattern{traffic.Uniform, traffic.Tornado} {
		rows, err := experiments.BreakdownSweep(p, o)
		if err != nil {
			return err
		}
		rows = liveSweepRows("fig8ab", rows)
		fmt.Printf("-- %s latency breakdown (router/link/ser/flov/contention) --\n", p)
		for _, r := range rows {
			b := r.Breakdown
			csv = append(csv, []string{
				r.Pattern, f(r.Frac), r.Mechanism,
				f(b.Router), f(b.Link), f(b.Serialization), f(b.FLOV), f(b.Contention), f(b.Total()),
			})
			fmt.Printf("%-9s gated=%3.0f%% %-9s router=%6.1f link=%5.1f ser=%4.1f flov=%5.1f cont=%6.1f total=%6.1f\n",
				r.Pattern, r.Frac*100, r.Mechanism, b.Router, b.Link, b.Serialization, b.FLOV, b.Contention, b.Total())
		}
	}
	return writeCSV(dir, "fig8ab.csv", csv)
}

func staticPower(dir string, o experiments.Options) error {
	rows, err := experiments.StaticPowerSweep(o)
	if err != nil {
		return err
	}
	rows = liveSweepRows("fig9", rows)
	csv := [][]string{{"gated_frac", "mechanism", "static_power_w", "gated_routers"}}
	for _, r := range rows {
		csv = append(csv, []string{f(r.Frac), r.Mechanism, f(r.StaticPowerW), fmt.Sprint(r.GatedRouters)})
	}
	if err := writeCSV(dir, "fig9.csv", csv); err != nil {
		return err
	}
	fmt.Println("-- static power (mW) --")
	printSeries(rows, 0.02, func(r experiments.SweepRow) float64 { return r.StaticPowerW * 1e3 })
	return nil
}

func timeline(dir string, o experiments.Options) error {
	rows, err := experiments.ReconfigTimeline([]config.Mechanism{config.RP, config.GFLOV}, o)
	if err != nil {
		return err
	}
	csv := [][]string{{"mechanism", "bin_start", "avg_latency", "packets"}}
	for _, r := range rows {
		csv = append(csv, []string{r.Mechanism, fmt.Sprint(r.BinStart), f(r.AvgLat), fmt.Sprint(r.Packets)})
	}
	if err := writeCSV(dir, "fig10.csv", csv); err != nil {
		return err
	}
	fmt.Printf("RP peak bin latency:    %.1f cycles\n", experiments.PeakTimelineLatency(rows, "RP", 0))
	fmt.Printf("gFLOV peak bin latency: %.1f cycles\n", experiments.PeakTimelineLatency(rows, "gFLOV", 0))
	return nil
}

func saturation(dir string, o experiments.Options) error {
	rows, err := experiments.SaturationSweep(traffic.Uniform, 0.3, o)
	if err != nil {
		return err
	}
	rows = liveSweepRows("saturation", rows)
	csv := [][]string{{"rate", "mechanism", "avg_latency", "undelivered", "packets"}}
	for _, r := range rows {
		csv = append(csv, []string{f(r.Rate), r.Mechanism, f(r.AvgLatency), fmt.Sprint(r.Undelivered), fmt.Sprint(r.Packets)})
	}
	if err := writeCSV(dir, "saturation.csv", csv); err != nil {
		return err
	}
	fmt.Println("-- avg latency vs offered load (30% gated; * = saturated) --")
	mechs := []string{"Baseline", "RP", "rFLOV", "gFLOV"}
	fmt.Printf("%-8s", "rate")
	for _, m := range mechs {
		fmt.Printf("%11s", m)
	}
	fmt.Println()
	for _, rate := range experiments.SaturationRates {
		fmt.Printf("%-8.2f", rate)
		for _, m := range mechs {
			for _, r := range rows {
				if sameGrid(r.Rate, rate) && r.Mechanism == m {
					mark := " "
					if r.Undelivered > 0 {
						mark = "*"
					}
					fmt.Printf("%10.1f%s", r.AvgLatency, mark)
				}
			}
		}
		fmt.Println()
	}
	return nil
}

func ablation(dir string, o experiments.Options) error {
	params := []experiments.AblationParam{
		experiments.AblEscapeTimeout, experiments.AblWakeupLatency,
		experiments.AblIdleThreshold, experiments.AblBufferDepth,
		experiments.AblTransitionTimeout,
	}
	csv := [][]string{{"param", "value", "mechanism", "avg_latency", "static_w", "total_w", "gated_routers"}}
	for _, p := range params {
		rows, err := experiments.Ablate(p, nil, o)
		if err != nil {
			return err
		}
		for _, r := range rows {
			if r.Err != "" {
				skip("ablation", fmt.Sprintf("%s=%d", r.Param, r.Value), r.Err)
				continue
			}
			csv = append(csv, []string{r.Param, fmt.Sprint(r.Value), r.Mechanism, f(r.AvgLatency), f(r.StaticW), f(r.TotalW), fmt.Sprint(r.GatedRout)})
			fmt.Printf("%-20s = %-5d lat=%6.1f Pstat=%6.1fmW Ptot=%6.1fmW gated=%d\n",
				r.Param, r.Value, r.AvgLatency, r.StaticW*1e3, r.TotalW*1e3, r.GatedRout)
		}
	}
	return writeCSV(dir, "ablation.csv", csv)
}

func scaling(dir string, o experiments.Options) error {
	rows, err := experiments.ScalingSweep(o)
	if err != nil {
		return err
	}
	csv := [][]string{{"width", "height", "mechanism", "avg_latency", "static_w", "total_w", "gated_routers", "undelivered"}}
	fmt.Println("-- mesh scaling (uniform 0.02, 50% gated) --")
	for _, r := range rows {
		if r.Err != "" {
			skip("scaling", fmt.Sprintf("%dx%d/%s", r.Width, r.Height, r.Mechanism), r.Err)
			continue
		}
		csv = append(csv, []string{
			fmt.Sprint(r.Width), fmt.Sprint(r.Height), r.Mechanism,
			f(r.AvgLatency), f(r.StaticPowerW), f(r.TotalPowerW),
			fmt.Sprint(r.GatedRouters), fmt.Sprint(r.Undelivered),
		})
		fmt.Printf("%2dx%-2d %-9s lat=%7.1f Pstat=%7.1fmW Ptot=%7.1fmW gated=%3d/%d\n",
			r.Width, r.Height, r.Mechanism, r.AvgLatency, r.StaticPowerW*1e3, r.TotalPowerW*1e3, r.GatedRouters, r.Routers)
	}
	return writeCSV(dir, "scaling.csv", csv)
}

func parsec(dir string, o experiments.Options, writeRows bool) error {
	rows, err := experiments.ParsecSweep(o)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if r.Err != "" {
			skip("fig8cd", fmt.Sprintf("%s/%s", r.Benchmark, r.Mechanism), r.Err)
		}
	}
	if writeRows {
		csv := [][]string{{"benchmark", "mechanism", "runtime_cycles", "static_pj", "dynamic_pj", "total_pj", "norm_static", "norm_total", "norm_runtime"}}
		for _, r := range rows {
			if r.Err != "" {
				continue
			}
			csv = append(csv, []string{
				r.Benchmark, r.Mechanism, fmt.Sprint(r.RuntimeCyc),
				f(r.StaticPJ), f(r.DynamicPJ), f(r.TotalPJ),
				f(r.NormStatic), f(r.NormTotal), f(r.NormRuntime),
			})
		}
		if err := writeCSV(dir, "fig8cd.csv", csv); err != nil {
			return err
		}
		fmt.Println("-- normalized static energy / runtime (vs Baseline) --")
		for _, r := range rows {
			if r.Err != "" {
				continue
			}
			fmt.Printf("%-14s %-9s Estat=%.3f Etot=%.3f runtime=%.3f\n",
				r.Benchmark, r.Mechanism, r.NormStatic, r.NormTotal, r.NormRuntime)
		}
	}
	h := experiments.Summarize(rows)
	summary := fmt.Sprintf(
		"FLOV (gFLOV) across %d PARSEC benchmarks:\n"+
			"  static energy vs Baseline: -%.1f%%  (paper: -43%%)\n"+
			"  runtime vs Baseline:       +%.1f%%  (paper: ~+1%%)\n"+
			"  static energy vs RP:       -%.1f%%  (paper: -22%%)\n"+
			"  total energy vs RP:        -%.1f%%  (paper: -18%%)\n",
		h.Benchmarks, h.StaticVsBaselinePct, h.RuntimeVsBasePct, h.StaticVsRPPct, h.TotalVsRPPct)
	fmt.Print(summary)
	return os.WriteFile(filepath.Join(dir, "headline.txt"), []byte(summary), 0o644)
}

func f(v float64) string { return fmt.Sprintf("%.4f", v) }
