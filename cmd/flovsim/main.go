// Command flovsim runs a single NoC simulation and prints its results:
// either a synthetic workload (BookSim-style) or a PARSEC-substitute
// full-system benchmark.
//
// Examples:
//
//	flovsim -mech gflov -pattern uniform -rate 0.02 -gated 0.5
//	flovsim -mech rp -pattern tornado -rate 0.08 -gated 0.3 -cycles 200000
//	flovsim -mech gflov -bench canneal
//	flovsim -table1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"flov"
)

func main() {
	mechName := flag.String("mech", "gflov", "mechanism: baseline|rp|rflov|gflov")
	patName := flag.String("pattern", "uniform", "traffic: uniform|tornado|transpose|bitcomp|neighbor|hotspot")
	rate := flag.Float64("rate", 0.02, "injection rate (flits/cycle/node)")
	gated := flag.Float64("gated", 0.5, "fraction of cores power-gated")
	cycles := flag.Int64("cycles", 100_000, "total simulated cycles")
	warmup := flag.Int64("warmup", 10_000, "warmup cycles before measurement")
	width := flag.Int("width", 8, "mesh width")
	height := flag.Int("height", 8, "mesh height")
	seed := flag.Uint64("seed", 1, "simulation seed")
	bench := flag.String("bench", "", "run a PARSEC-substitute benchmark instead (e.g. canneal)")
	table1 := flag.Bool("table1", false, "print the Table I configuration and exit")
	jsonOut := flag.Bool("json", false, "emit the result as JSON (same row schema as flovsweep)")
	showMap := flag.Bool("map", false, "print the final power-state and activity maps")
	traceN := flag.Int("trace", 0, "record and print the last N simulator events")
	ckptFile := flag.String("checkpoint", "", "write a checkpoint to FILE every -checkpoint-every cycles (atomic overwrite)")
	ckptEvery := flag.Int64("checkpoint-every", 0, "checkpoint cadence in cycles (requires -checkpoint)")
	restoreFile := flag.String("restore", "", "restore simulation state from a checkpoint FILE before running")
	faultsFile := flag.String("faults", "", "attach the fault-injection subsystem from a fault-spec JSON FILE (synthetic runs only)")
	flag.Parse()

	if *ckptEvery > 0 && *ckptFile == "" {
		fatal(fmt.Errorf("-checkpoint-every requires -checkpoint"))
	}
	if *ckptFile != "" && *ckptEvery <= 0 {
		fatal(fmt.Errorf("-checkpoint requires a positive -checkpoint-every cadence"))
	}

	cfg := flov.Default()
	cfg.Width, cfg.Height = *width, *height
	cfg.TotalCycles, cfg.WarmupCycles = *cycles, *warmup
	cfg.Seed = *seed

	if *table1 {
		fmt.Print(cfg.TableI())
		return
	}

	mech, err := flov.ParseMechanism(*mechName)
	if err != nil {
		fatal(err)
	}

	var faults *flov.FaultSpec
	if *faultsFile != "" {
		data, err := os.ReadFile(*faultsFile)
		if err != nil {
			fatal(err)
		}
		spec, err := flov.ParseFaultSpec(data)
		if err != nil {
			fatal(err)
		}
		faults = &spec
	}

	if *bench != "" {
		if faults != nil {
			fatal(fmt.Errorf("-faults is only supported for synthetic runs"))
		}
		start := time.Now()
		out, err := runBench(*bench, mech, *seed, *restoreFile, *ckptFile, *ckptEvery)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			job, err := flov.PARSECJob(*bench, mech, *seed, 0)
			if err != nil {
				fatal(err)
			}
			printJSON(flov.SweepResult{Job: job, Out: out, Wall: time.Since(start)})
			return
		}
		fmt.Println(out)
		return
	}

	pat, err := flov.ParsePattern(*patName)
	if err != nil {
		fatal(err)
	}
	opts := flov.SyntheticOptions{
		Config:        cfg,
		Mechanism:     mech,
		Pattern:       pat,
		InjRate:       *rate,
		GatedFraction: *gated,
		GatedSeed:     *seed,
		Faults:        faults,
	}
	n, err := flov.Build(opts)
	if err != nil {
		fatal(err)
	}
	if *traceN > 0 {
		n.EnableTrace(flov.NewTraceLog(*traceN))
	}
	if *restoreFile != "" {
		if err := restoreFrom(*restoreFile, n, nil); err != nil {
			fatal(err)
		}
	}
	start := time.Now()
	if *ckptFile != "" {
		// Advance the measurement window in cadence-sized increments,
		// persisting a checkpoint after each; Run() then finishes whatever
		// remains (a no-op advance) plus the drain phase.
		for n.Now() < cfg.TotalCycles {
			next := n.Now() + *ckptEvery
			if next > cfg.TotalCycles {
				next = cfg.TotalCycles
			}
			n.RunTo(next)
			if err := saveCheckpoint(*ckptFile, n, nil); err != nil {
				fatal(err)
			}
		}
	}
	res := n.Run()
	if *jsonOut {
		job, err := flov.SyntheticJob(opts)
		if err != nil {
			fatal(err)
		}
		printJSON(flov.SweepResult{Job: job, Res: res, Wall: time.Since(start)})
		if res.Undelivered != 0 {
			os.Exit(1)
		}
		return
	}
	fmt.Println(res)
	b := res.Breakdown
	fmt.Printf("latency breakdown: router=%.1f link=%.1f serialization=%.1f flov=%.1f contention=%.1f\n",
		b.Router, b.Link, b.Serialization, b.FLOV, b.Contention)
	fmt.Printf("power: static=%.1fmW dynamic=%.1fmW total=%.1fmW (gated routers: %d/%d)\n",
		res.StaticPowerW*1e3, res.DynamicPowerW*1e3, res.TotalPowerW*1e3,
		res.GatedRouters, res.GatedRouters+res.PoweredRouters)
	fmt.Printf("latency tail: p99<=%d max=%d cycles; escape packets: %.2f%%\n",
		res.P99Latency, res.MaxLatency, res.EscapeFrac*100)
	if *showMap {
		fmt.Println("\nfinal network state:")
		fmt.Print(flov.RenderSideBySide(n))
	}
	if *traceN > 0 {
		fmt.Printf("\nlast %d of %d recorded events:\n", len(n.Trace.Tail(*traceN)), n.Trace.Total())
		for _, e := range n.Trace.Tail(*traceN) {
			fmt.Println(e)
		}
	}
	if res.Undelivered != 0 {
		fmt.Printf("WARNING: %d flits undelivered\n", res.Undelivered)
		os.Exit(1)
	}
}

// runBench executes a closed-loop benchmark, optionally restoring from
// and/or writing checkpoints. Without either option it defers to the
// plain facade entry point.
func runBench(bench string, mech flov.Mechanism, seed uint64, restoreFile, ckptFile string, ckptEvery int64) (flov.Outcome, error) {
	if restoreFile == "" && ckptFile == "" {
		return flov.RunPARSEC(bench, mech, seed, 0)
	}
	n, d, err := flov.BuildPARSEC(bench, mech, seed)
	if err != nil {
		return flov.Outcome{}, err
	}
	if restoreFile != "" {
		if err := restoreFrom(restoreFile, n, d); err != nil {
			return flov.Outcome{}, err
		}
	}
	if ckptFile != "" {
		for n.Now() < flov.DefaultMaxCycles && !d.Finished() {
			d.RunUntil(min(n.Now()+ckptEvery, flov.DefaultMaxCycles))
			if err := saveCheckpoint(ckptFile, n, d); err != nil {
				return flov.Outcome{}, err
			}
		}
	} else {
		d.RunUntil(flov.DefaultMaxCycles)
	}
	out := d.Outcome()
	if !out.Completed {
		return out, flov.IncompleteError(bench, mech, flov.DefaultMaxCycles)
	}
	return out, nil
}

// restoreFrom applies a checkpoint file to a freshly built simulation.
func restoreFrom(path string, n *flov.Network, d *flov.Driver) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	if err := flov.RestoreSnapshot(f, n, d); err != nil {
		return fmt.Errorf("restoring %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "flovsim: restored from %s at cycle %d\n", path, n.Now())
	return nil
}

// saveCheckpoint writes a snapshot atomically: temp file in the target
// directory, fsync-free rename, so a crash mid-write never clobbers the
// previous good checkpoint.
func saveCheckpoint(path string, n *flov.Network, d *flov.Driver) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".flovsnap-*")
	if err != nil {
		return err
	}
	// Best effort: after a successful rename there is nothing to remove.
	defer func() { _ = os.Remove(tmp.Name()) }()
	if err := flov.SaveSnapshot(tmp, n, d); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// printJSON writes one sweep-schema row to stdout.
func printJSON(r flov.SweepResult) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(r); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flovsim:", err)
	os.Exit(1)
}
