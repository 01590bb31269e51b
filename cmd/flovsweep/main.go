// Command flovsweep runs a grid of independent simulation points across
// a worker pool, with a content-addressed on-disk result cache: re-running
// an unchanged spec only reads cached rows, so iterating on a design
// sweep costs seconds, not CPU-hours.
//
// The grid is the cross product of the comma-separated flag lists (or a
// JSON spec file), in pattern x rate x fraction x mechanism order:
//
//	flovsweep -pattern uniform,tornado -rate 0.02,0.08 -gated 0,0.3,0.5 -mech all
//	flovsweep -bench all -mech baseline,gflov            # PARSEC closed-loop grid
//	flovsweep -spec sweep.json -format json -out rows.json
//	flovsweep -clear-cache                               # drop every cached result
//
// Every finished point is cached the moment it completes, so an
// interrupted sweep resumes by re-running it with the same -cache-dir:
// only the points that never finished simulate again.
//
// Cache and timing stats go to stderr; rows go to -out (default stdout)
// as CSV or JSON. The JSON row schema is shared with `flovsim -json`.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flov"
	"flov/internal/service"
	"flov/internal/service/client"
	"flov/internal/sweep"
)

func main() {
	patterns := flag.String("pattern", "uniform", "comma-separated traffic patterns")
	rates := flag.String("rate", "0.02", "comma-separated injection rates (flits/cycle/node)")
	fracs := flag.String("gated", "0.5", "comma-separated gated-core fractions")
	mechs := flag.String("mech", "all", "comma-separated mechanisms, or 'all'")
	benches := flag.String("bench", "", "comma-separated PARSEC benchmarks (or 'all'); replaces the synthetic grid")
	width := flag.Int("width", 0, "mesh width (0 = Table I default)")
	height := flag.Int("height", 0, "mesh height (0 = Table I default)")
	cycles := flag.Int64("cycles", 0, "total simulated cycles (0 = default)")
	warmup := flag.Int64("warmup", 0, "warmup cycles (0 = default)")
	seed := flag.Uint64("seed", 1, "simulation + gated-set seed")
	maxCycles := flag.Int64("max-cycles", 0, "PARSEC run bound (0 = default)")
	faultsPath := flag.String("faults", "", "fault-spec JSON file attached to every synthetic point (overrides the spec file's faults)")
	specPath := flag.String("spec", "", "JSON sweep spec file (overrides the grid flags)")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "result cache directory (default $FLOV_SWEEP_CACHE or the user cache dir)")
	noCache := flag.Bool("no-cache", false, "disable the result cache")
	clearCache := flag.Bool("clear-cache", false, "remove every cached result and exit")
	format := flag.String("format", "csv", "output format: csv|json")
	out := flag.String("out", "", "output file (default stdout)")
	quiet := flag.Bool("quiet", false, "suppress the per-job progress ticker")
	server := flag.String("server", "", "delegate the sweep to a running flovd at this base URL (cache flags then apply server-side)")
	flag.Parse()

	if *server != "" {
		if *clearCache {
			fatal(fmt.Errorf("-clear-cache is local-only; the -server cache belongs to flovd"))
		}
		spec, err := buildSpec(*specPath, *faultsPath, *patterns, *rates, *fracs, *mechs, *benches,
			*width, *height, *cycles, *warmup, *seed, *maxCycles)
		if err != nil {
			fatal(err)
		}
		runRemote(*server, spec, *format, *out, *quiet)
		return
	}

	cache, err := sweep.OpenCache(*cacheDir, *noCache)
	if err != nil {
		fatal(err)
	}
	if *clearCache {
		if cache == nil {
			fatal(fmt.Errorf("-clear-cache with -no-cache makes no sense"))
		}
		n, err := cache.Len()
		if err != nil {
			fatal(err)
		}
		if err := cache.Clear(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "cleared %d cached results under %s\n", n, cache.Dir())
		return
	}

	spec, err := buildSpec(*specPath, *faultsPath, *patterns, *rates, *fracs, *mechs, *benches,
		*width, *height, *cycles, *warmup, *seed, *maxCycles)
	if err != nil {
		fatal(err)
	}
	jobs, err := spec.Jobs()
	if err != nil {
		fatal(err)
	}
	if len(jobs) == 0 {
		fatal(fmt.Errorf("spec expands to zero jobs"))
	}

	engine := &sweep.Engine{Workers: *workers, Cache: cache}
	if !*quiet {
		engine.Progress = sweep.NewReporter(os.Stderr)
	}

	// SIGINT stops scheduling new points; finished points still print.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	results := engine.Run(ctx, jobs)
	stats := sweep.Summarize(results, time.Since(start))

	if err := writeRows(results, *format, *out); err != nil {
		fatal(err)
	}

	fmt.Fprintln(os.Stderr, stats)
	if cache != nil {
		hits, misses, writes := cache.Counters()
		fmt.Fprintf(os.Stderr, "cache %s: %d hits, %d misses, %d writes\n",
			cache.Dir(), hits, misses, writes)
	}
	exitOnFailures(results, stats.Errors)
}

// runRemote delegates the sweep to a flovd daemon: same spec, same
// output paths and exit codes, progress ticker fed by the NDJSON
// stream instead of local engine callbacks.
func runRemote(base string, spec flov.SweepSpec, format, out string, quiet bool) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	onEvent := func(ev service.StreamEvent) {
		if quiet {
			return
		}
		switch {
		case ev.Type == service.EventAccepted:
			fmt.Fprintf(os.Stderr, "flovd accepted job %s (%d points)\n", ev.ID, ev.Total)
		case ev.Type == service.EventPoint && ev.Status == service.PointError:
			fmt.Fprintf(os.Stderr, "[%d/%d] %-40s ERROR: %s\n", ev.Index+1, ev.Total, ev.Desc, firstLine(ev.Err))
		case ev.Type == service.EventPoint:
			fmt.Fprintf(os.Stderr, "[%d/%d] %-40s %s (%.2fs)\n", ev.Index+1, ev.Total, ev.Desc, ev.Status, ev.WallMS/1000)
		}
	}
	results, stats, err := client.New(base).Run(ctx, spec, onEvent)
	if err != nil {
		fatal(err)
	}
	if err := writeRows(results, format, out); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, stats)
	exitOnFailures(results, stats.Errors)
}

// writeRows renders results to -out (or stdout) in the chosen format.
func writeRows(results []flov.SweepResult, format, out string) error {
	w := os.Stdout
	var outFile *os.File
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		outFile = f
		w = f
	}
	var err error
	switch format {
	case "csv":
		err = writeCSV(w, results)
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		err = enc.Encode(results)
	default:
		err = fmt.Errorf("unknown format %q (want csv or json)", format)
	}
	// Close before reporting: a close error on a freshly written file
	// means rows may not have reached the disk.
	if outFile != nil {
		if cerr := outFile.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// exitOnFailures lists failed points on stderr and exits 1, matching
// the local engine path's contract.
func exitOnFailures(results []flov.SweepResult, errs int) {
	if errs == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "%d points failed:\n", errs)
	for _, r := range results {
		if r.Err != "" {
			fmt.Fprintf(os.Stderr, "  %s: %s\n", r.Job.Desc(), firstLine(r.Err))
		}
	}
	os.Exit(1)
}

// buildSpec loads the spec file or folds the grid flags into one; a
// -faults file attaches (or replaces) the fault scenario either way.
func buildSpec(path, faultsPath, patterns, rates, fracs, mechs, benches string,
	width, height int, cycles, warmup int64, seed uint64, maxCycles int64) (flov.SweepSpec, error) {
	var spec flov.SweepSpec
	if path != "" {
		loaded, err := sweep.LoadSpec(path)
		if err != nil {
			return flov.SweepSpec{}, err
		}
		spec = loaded
	} else {
		rateList, err := parseFloats(rates)
		if err != nil {
			return flov.SweepSpec{}, fmt.Errorf("-rate: %w", err)
		}
		fracList, err := parseFloats(fracs)
		if err != nil {
			return flov.SweepSpec{}, fmt.Errorf("-gated: %w", err)
		}
		spec = flov.SweepSpec{
			Patterns:   splitList(patterns),
			Rates:      rateList,
			GatedFracs: fracList,
			Mechanisms: splitList(mechs),
			Benchmarks: splitList(benches),
			Width:      width,
			Height:     height,
			Cycles:     cycles,
			Warmup:     warmup,
			Seed:       seed,
			MaxCycles:  maxCycles,
		}
	}
	if faultsPath != "" {
		data, err := os.ReadFile(faultsPath)
		if err != nil {
			return flov.SweepSpec{}, fmt.Errorf("-faults: %w", err)
		}
		fs, err := flov.ParseFaultSpec(data)
		if err != nil {
			return flov.SweepSpec{}, fmt.Errorf("-faults: %w", err)
		}
		spec.Faults = &fs
	}
	return spec, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range splitList(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// writeCSV flattens results into one row per point. Synthetic and PARSEC
// points share the column set; inapplicable cells are empty.
func writeCSV(w *os.File, results []flov.SweepResult) error {
	var b strings.Builder
	b.WriteString("kind,pattern,bench,rate,gated_frac,mechanism,seed,avg_latency,static_power_w,dyn_power_w,total_power_w,gated_routers,packets,undelivered,runtime_cycles,static_pj,total_pj,cached,wall_s,err\n")
	for _, r := range results {
		j := r.Job
		f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		var cells []string
		if j.Kind == flov.SweepPARSEC {
			cells = []string{
				"parsec", "", j.Profile.Name, "", "", j.Mechanism.String(), fmt.Sprint(j.Seed),
				f(r.Out.AvgPktLatency), "", "", "", "", "", "",
				fmt.Sprint(r.Out.RuntimeCyc), f(r.Out.StaticPJ), f(r.Out.TotalPJ),
			}
		} else {
			cells = []string{
				"synthetic", j.Pattern.String(), "", f(j.Rate), f(j.Frac), j.Mechanism.String(), fmt.Sprint(j.Config.Seed),
				f(r.Res.AvgLatency), f(r.Res.StaticPowerW), f(r.Res.DynamicPowerW), f(r.Res.TotalPowerW),
				fmt.Sprint(r.Res.GatedRouters), fmt.Sprint(r.Res.Packets), fmt.Sprint(r.Res.Undelivered),
				"", "", "",
			}
		}
		cells = append(cells,
			fmt.Sprint(r.CacheHit),
			strconv.FormatFloat(r.Wall.Seconds(), 'f', 3, 64),
			csvQuote(firstLine(r.Err)))
		b.WriteString(strings.Join(cells, ","))
		b.WriteByte('\n')
	}
	_, err := w.WriteString(b.String())
	return err
}

// csvQuote guards the free-text error column.
func csvQuote(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flovsweep:", err)
	os.Exit(1)
}
