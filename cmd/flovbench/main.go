// Command flovbench gates benchmark regressions against the committed
// baseline (BENCH_sweep.json at the module root). It consumes the text
// output of `go test -bench -benchmem` and compares ns/op and allocs/op
// per benchmark: allocs/op tightly (near-deterministic), ns/op loosely
// (cross-machine noise). See internal/analysis/benchgate for the rules.
//
// Usage:
//
//	go test -bench 'Step|Sweep' -benchmem ./... | flovbench -check
//	flovbench -check -in bench.txt -report compare.txt
//	go test -bench 'Step|Sweep' -benchmem ./... | flovbench -update
//
// -check compares against the latest recording in the baseline's
// history and exits 1 on any regression, and also on a baselined
// benchmark missing from the input (a silently shrinking run is not a
// passing run). -update instead appends the input to the history as a
// new recording dated today; benchmarks it lacks keep their previous
// numbers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"flov/internal/analysis"
	"flov/internal/analysis/benchgate"
)

const defaultBaselineName = "BENCH_sweep.json"

func main() {
	check := flag.Bool("check", false, "compare input against the baseline; exit 1 on regression")
	update := flag.Bool("update", false, "append the input to the baseline history as its latest recording")
	in := flag.String("in", "", "benchmark output file (default: stdin)")
	baselinePath := flag.String("baseline", "", "baseline file (default: "+defaultBaselineName+" at the module root)")
	reportPath := flag.String("report", "", "also write the comparison report to this file (the CI artifact)")
	note := flag.String("note", "", "with -update: provenance note stored in the baseline")
	nsRatio := flag.Float64("ns-ratio", benchgate.DefaultLimits().NsRatio, "allowed ns/op ratio over baseline")
	allocsRatio := flag.Float64("allocs-ratio", benchgate.DefaultLimits().AllocsRatio, "allowed allocs/op ratio over baseline")
	allocsSlack := flag.Float64("allocs-slack", benchgate.DefaultLimits().AllocsSlack, "absolute allocs/op allowance on top of the ratio")
	flag.Parse()

	if *check == *update {
		fatal(fmt.Errorf("exactly one of -check or -update is required"))
	}

	var src io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer func() { _ = f.Close() }() // read-only input
		src = f
	}
	current, err := benchgate.ParseBench(src)
	if err != nil {
		fatal(err)
	}
	if len(current) == 0 {
		fatal(fmt.Errorf("no benchmark results in input (did the bench run fail?)"))
	}

	bpath := *baselinePath
	if bpath == "" {
		wd, err := os.Getwd()
		if err != nil {
			fatal(err)
		}
		root, err := analysis.FindModuleRoot(wd)
		if err != nil {
			fatal(err)
		}
		bpath = filepath.Join(root, defaultBaselineName)
	}

	if *update {
		b := &benchgate.Baseline{Date: time.Now().UTC().Format(time.DateOnly), Note: *note, Benchmarks: current}
		if err := benchgate.Append(bpath, b); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "flovbench: recorded %d benchmark(s) in %s\n", len(current), bpath)
		return
	}

	baseline, err := benchgate.Load(bpath)
	if err != nil {
		fatal(err)
	}
	lim := benchgate.Limits{NsRatio: *nsRatio, AllocsRatio: *allocsRatio, AllocsSlack: *allocsSlack}
	deltas, missing := benchgate.Compare(baseline, current, lim)

	report := benchgate.Report(deltas, missing)
	fmt.Print(report)
	if *reportPath != "" {
		if err := os.WriteFile(*reportPath, []byte(report), 0o644); err != nil {
			fatal(err)
		}
	}

	failed := len(missing) > 0
	for _, d := range deltas {
		if d.Regressed() {
			failed = true
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "flovbench: benchmark gate FAILED")
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "flovbench: %d benchmark(s) within limits\n", len(deltas))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flovbench:", err)
	os.Exit(2)
}
