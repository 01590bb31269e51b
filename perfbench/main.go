// Command perfbench is the FLOV simulator's end-to-end and per-layer
// benchmark. Each run measures one workload as a closed loop of
// identical fixed-seed ops from one process, checks every op's rows
// against a digest, and prints one JSON result as its last line:
//
//	bash perfbench/run.sh --workload lowload --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it alternates untraced and probed ops and carries the
// per-layer metrics and the probes' overhead. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the seed the committed golden digests were recorded at.
const defaultSeed = 1

// workload is one closed loop of identical ops.
type workload interface {
	// setupReps is how many times a run sets up, for a steady setup_s.
	setupReps() int
	// setup prepares what the ops run against and returns its cost;
	// p is nil outside traced runs.
	setup(p *probes) (opTime, error)
	// op runs one op and returns the host time of its calls into the
	// program, which excludes checking the rows; with probes (non-nil
	// p) it runs the same work with the layer probes on.
	op(p *probes) (outcome, opTime, error)
	// layerMetrics summarizes the probes into per-layer metrics, after
	// any probes that must not run between ops.
	layerMetrics(p *probes) (map[string]float64, error)
	close() error
}

func newWorkload(name string, seed uint64, root string, traced bool) (workload, error) {
	switch name {
	case "lowload":
		return newSynthetic(seed, 0.02, 0.7, 10_000, 100_000), nil
	case "saturation":
		return newSynthetic(seed, 0.34, 0, 2_000, 20_000), nil
	case "parsec":
		return &parsec{bench: "dedup", seed: seed}, nil
	case "serve":
		return newServe(filepath.Join(root, ".bench_build", "perfbench-tmp"), seed, traced)
	}
	return nil, fmt.Errorf("unknown workload %q (want lowload, saturation, parsec or serve)", name)
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer list every metric a run reports, in report
// order; BENCHMARK.json declares the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_cycles_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"max_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"network.build_ms", "ms"},
	{"network.build_allocs", "count"},
	{"network.cycle_us", "us"},
	{"network.cycle_us_p99", "us"},
	{"network.drain_ms", "ms"},
	{"network.allocs_per_kcycle", "allocs/kcycle"},
	{"network.gc_per_op", "count"},
	{"core.sleep_frac", "ratio"},
	{"core.transitions", "count"},
	{"router.flit_hops", "count"},
	{"router.ns_per_flit_hop", "ns"},
	{"traffic.packets", "count"},
	{"trace.cycle_us", "us"},
	{"trace.transactions", "count"},
	{"sweep.hash_us", "us"},
	{"sweep.cache_get_us", "us"},
	{"sweep.cache_put_us", "us"},
	{"sweep.cache_hit_ratio", "ratio"},
	{"service.accept_ms", "ms"},
	{"service.first_row_ms", "ms"},
	{"service.stream_ms", "ms"},
	{"service.stream_bytes", "bytes"},
	{"service.op_p90_ms", "ms"},
	{"probe.overhead_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runStats is what the measured loop observed.
type runStats struct {
	setups    []opTime
	ops       []opTime // untraced ops that succeeded
	cycles    []int64  // simulated cycles of each of ops
	traced    []opTime // probed ops that succeeded
	attempted int
	failed    int
	digest    string
	host      hostRecord
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "lowload, saturation, parsec or serve")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "length of the measured loop")
	trace := fs.Int("trace", 0, "1 alternates untraced and probed ops and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1, --trace 0 or 1, and no positional arguments")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	traced := *trace == 1
	w, err := newWorkload(*name, *seed, root, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var p *probes
	if traced {
		p = newProbes()
	}
	st, err := measure(w, *name, *seed, time.Duration(*seconds)*time.Second, p, root)
	var values map[string]float64
	if err == nil && traced {
		values, err = w.layerMetrics(p)
	}
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res := result{
		Correct:   st.failed == 0,
		Attempted: st.attempted,
		Failed:    st.failed,
		Metrics:   make(map[string]metric),
	}
	if traced {
		if len(st.ops) > 0 && len(st.traced) > 0 {
			values["probe.overhead_pct"] = (median(cpuSeconds(st.traced))/median(cpuSeconds(st.ops)) - 1) * 100
		}
		fill(res.Metrics, perLayer, values)
		path := filepath.Join(root, ".bench_build", "perfbench-spans", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := p.write(path, st.host); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	} else {
		fill(res.Metrics, endToEnd, map[string]float64{
			"setup_s":          median(cpuSeconds(st.setups)),
			"sim_cycles_per_s": median(st.rates(cpuSeconds(st.ops))),
			"op_p50_ms":        median(cpuSeconds(st.ops)) * 1e3,
			"max_rss_mb":       maxRSSMB(),
		})
	}
	out, err := report(*name, *seed, traced, st, res)
	if err == nil {
		_, err = os.Stdout.Write(out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// fill copies every declared metric, reporting 0 for one the workload's
// path does not reach.
func fill(dst map[string]metric, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		dst[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
}

// measure sets the workload up, runs one untimed warm-up op and then
// ops back to back for the given duration, each from a collected heap.
// With probes, every second op is traced.
func measure(w workload, name string, seed uint64, dur time.Duration, p *probes, root string) (runStats, error) {
	var st runStats
	for i := 0; i < w.setupReps(); i++ {
		runtime.GC()
		d, err := w.setup(p)
		if err != nil {
			return st, fmt.Errorf("set-up: %w", err)
		}
		st.setups = append(st.setups, d)
	}

	warm, _, err := w.op(nil)
	if err != nil {
		return st, fmt.Errorf("warm-up op: %w", err)
	}
	if warm.fail != "" {
		return st, fmt.Errorf("warm-up op: %s", warm.fail)
	}
	// Under the golden seed every op must reproduce the committed rows;
	// under any other seed every op must reproduce the warm-up's.
	st.digest = warm.digest
	if seed == defaultSeed {
		st.digest = golden[name]
	}

	cpu0 := sampleCPU()
	start := hostNow()
	for i := 0; hostNow().Sub(start) < dur; i++ {
		runtime.GC()
		var op *probes
		if i%2 == 1 {
			op = p
		}
		out, t, err := w.op(op)
		st.attempted++
		switch {
		case err != nil:
			st.failed++
			fmt.Fprintf(os.Stderr, "op %d failed: %v\n", i, err)
			continue
		case out.fail != "":
			st.failed++
			fmt.Fprintf(os.Stderr, "op %d failed: %s\n", i, out.fail)
			continue
		case out.digest != st.digest:
			st.failed++
			fmt.Fprintf(os.Stderr, "op %d failed: rows digest %s, want %s\n", i, out.digest, st.digest)
			continue
		}
		if op != nil {
			st.traced = append(st.traced, t)
		} else {
			st.ops = append(st.ops, t)
			st.cycles = append(st.cycles, out.cycles)
		}
	}
	st.host = newHostRecord(root, cpu0, sampleCPU())
	return st, nil
}

// rates gives each untraced op's simulated cycles per second of secs.
func (st runStats) rates(secs []float64) []float64 {
	out := make([]float64, len(secs))
	for i, s := range secs {
		out[i] = float64(st.cycles[i]) / s
	}
	return out
}

func cpuSeconds(ts []opTime) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.cpu.Seconds()
	}
	return out
}

func wallSeconds(ts []opTime) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.wall.Seconds()
	}
	return out
}

// report renders a readable summary, the host record, and the result as
// the last line.
func report(name string, seed uint64, traced bool, st runStats, res result) ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "perfbench %s seed=%d trace=%v: %d ops, %d failed, rows digest %s\n",
		name, seed, traced, st.attempted, st.failed, st.digest)
	fmt.Fprintf(&b, "  samples: %d set-ups, %d untraced ops, %d traced ops\n", len(st.setups), len(st.ops), len(st.traced))
	fmt.Fprintf(&b, "  wall-clock medians: set-up %.6g s, op %.3f ms, %.6g cycles/s\n",
		median(wallSeconds(st.setups)), median(wallSeconds(st.ops))*1e3, median(st.rates(wallSeconds(st.ops))))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-26s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	host, err := json.Marshal(map[string]hostRecord{"host": st.host})
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	b.Write(host)
	b.WriteByte('\n')
	b.Write(line)
	b.WriteByte('\n')
	return b.Bytes(), nil
}
