// Command flovopt searches the FLOV design space for Pareto-optimal
// configurations: a deterministic multi-objective optimizer over mesh
// size, VC/buffer counts, gating mechanism, wakeup latency, gated
// fraction and workload, scored on energy per flit, latency and
// throughput. Every candidate runs through the sweep engine, so
// evaluations hit the shared on-disk result cache, and the whole search
// is a pure function of the spec: same spec + seed = byte-identical
// front, across processes.
//
//	flovopt -mech all -gated 0,0.25,0.5 -rate 0.02,0.08        # grid flags
//	flovopt -spec search.json -format json -out front.json      # JSON spec
//	flovopt -strategy anneal -generations 12 -population 24
//	flovopt -plot                                               # ASCII front scatter
//
// Every evaluation is cached as it completes, so an interrupted search
// resumes by re-running it with the same -cache-dir: the deterministic
// loop replays, cached candidates answer from disk, and only the
// candidates never finished simulate.
//
// Progress goes to stderr; the front goes to -out (default stdout) as
// CSV or JSON.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flov/internal/opt"
	"flov/internal/sweep"
)

func main() {
	objectives := flag.String("objectives", "energy_per_flit,mean_latency", "comma-separated objectives (energy_per_flit, mean_latency, p99_latency, throughput)")
	strategy := flag.String("strategy", "nsga2", "search strategy: nsga2|anneal|random")
	generations := flag.Int("generations", 8, "ask/evaluate/tell rounds")
	population := flag.Int("population", 16, "candidates per generation")
	seed := flag.Uint64("seed", 1, "search + simulation + gated-mask seed")
	widths := flag.String("widths", "", "comma-separated mesh widths (default 8)")
	heights := flag.String("heights", "", "comma-separated mesh heights (default 8)")
	vcs := flag.String("vcs", "", "comma-separated VCs per vnet (default 3)")
	buffers := flag.String("buffers", "", "comma-separated buffer depths (default 6)")
	mechs := flag.String("mech", "all", "comma-separated mechanisms, or 'all'")
	wakeups := flag.String("wakeup", "", "comma-separated wakeup latencies (default 10)")
	fracs := flag.String("gated", "", "comma-separated gated fractions (default 0,0.25,0.5)")
	rates := flag.String("rate", "", "comma-separated injection rates (default 0.02,0.06)")
	patterns := flag.String("pattern", "", "comma-separated traffic patterns (default uniform)")
	cycles := flag.Int64("cycles", 0, "total simulated cycles per candidate (0 = default)")
	warmup := flag.Int64("warmup", 0, "warmup cycles per candidate (0 = default)")
	specPath := flag.String("spec", "", "JSON spec file (overrides the grid flags)")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "result cache directory (default $FLOV_SWEEP_CACHE or the user cache dir)")
	noCache := flag.Bool("no-cache", false, "disable the result cache")
	format := flag.String("format", "csv", "output format: csv|json")
	out := flag.String("out", "", "output file (default stdout)")
	plot := flag.Bool("plot", false, "render the front as an ASCII scatter on stderr")
	quiet := flag.Bool("quiet", false, "suppress the per-generation progress ticker")
	flag.Parse()

	spec, err := buildSpec(*specPath, *objectives, *strategy, *generations, *population, *seed,
		*widths, *heights, *vcs, *buffers, *mechs, *wakeups, *fracs, *rates, *patterns,
		*cycles, *warmup)
	if err != nil {
		fatal(err)
	}

	cache, err := sweep.OpenCache(*cacheDir, *noCache)
	if err != nil {
		fatal(err)
	}

	opts := opt.Options{Workers: *workers, Cache: cache}
	if !*quiet {
		opts.Progress = func(ev opt.Event) {
			fmt.Fprintf(os.Stderr, "gen %d/%d: %d asked, %d simulated (%d cached), %d reused, front=%d\n",
				ev.Gen+1, ev.Generations, ev.Asked, ev.Simulated, ev.CacheHits, ev.Reused, ev.Front)
		}
	}

	// SIGINT stops scheduling; the partial front still prints below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	outcome, runErr := opt.Run(ctx, spec, opts)
	wall := time.Since(start)

	// A spec/setup error produces no outcome worth printing; only an
	// interrupted search still writes its partial front below.
	if runErr != nil && ctx.Err() == nil {
		fatal(runErr)
	}

	w := os.Stdout
	var outFile *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		outFile = f
		w = f
	}
	switch *format {
	case "csv":
		err = outcome.FrontCSV(w)
	case "json":
		err = outcome.FrontJSON(w)
	default:
		err = fmt.Errorf("unknown format %q (want csv or json)", *format)
	}
	if outFile != nil {
		if cerr := outFile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fatal(err)
	}

	if *plot && len(outcome.Front) > 0 {
		fmt.Fprint(os.Stderr, outcome.FrontPlot(60, 16))
	}
	fmt.Fprintf(os.Stderr, "%s/%s: %d generations, %d asked, %d simulated (%d cached, %d reused) over a %d-point space in %v; front=%d\n",
		outcome.Strategy, strings.Join(names(outcome.Objectives), "+"),
		outcome.Generations, outcome.Asked, outcome.Simulated, outcome.CacheHits,
		outcome.Reused, outcome.SpaceSize, wall.Round(time.Millisecond), len(outcome.Front))
	if runErr != nil {
		fatal(runErr)
	}
}

func names(objs []opt.Objective) []string {
	out := make([]string, len(objs))
	for i, o := range objs {
		out[i] = o.String()
	}
	return out
}

// buildSpec loads the spec file or folds the grid flags into one.
func buildSpec(path, objectives, strategy string, generations, population int, seed uint64,
	widths, heights, vcs, buffers, mechs, wakeups, fracs, rates, patterns string,
	cycles, warmup int64) (opt.Spec, error) {
	if path != "" {
		return opt.LoadSpec(path)
	}
	widthList, err := parseInts(widths)
	if err != nil {
		return opt.Spec{}, fmt.Errorf("-widths: %w", err)
	}
	heightList, err := parseInts(heights)
	if err != nil {
		return opt.Spec{}, fmt.Errorf("-heights: %w", err)
	}
	vcList, err := parseInts(vcs)
	if err != nil {
		return opt.Spec{}, fmt.Errorf("-vcs: %w", err)
	}
	bufList, err := parseInts(buffers)
	if err != nil {
		return opt.Spec{}, fmt.Errorf("-buffers: %w", err)
	}
	wakeList, err := parseInts(wakeups)
	if err != nil {
		return opt.Spec{}, fmt.Errorf("-wakeup: %w", err)
	}
	fracList, err := parseFloats(fracs)
	if err != nil {
		return opt.Spec{}, fmt.Errorf("-gated: %w", err)
	}
	rateList, err := parseFloats(rates)
	if err != nil {
		return opt.Spec{}, fmt.Errorf("-rate: %w", err)
	}
	return opt.Spec{
		Space: opt.Space{
			Widths:     widthList,
			Heights:    heightList,
			VCs:        vcList,
			Buffers:    bufList,
			Mechanisms: splitList(mechs),
			Wakeups:    wakeList,
			GatedFracs: fracList,
			Rates:      rateList,
			Patterns:   splitList(patterns),
		},
		Objectives:  splitList(objectives),
		Strategy:    strategy,
		Generations: generations,
		Population:  population,
		Seed:        seed,
		Cycles:      cycles,
		Warmup:      warmup,
	}, nil
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

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flovopt:", err)
	os.Exit(1)
}
