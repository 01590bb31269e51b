// Package benchgate turns `go test -bench -benchmem` output into a
// regression gate: a committed baseline file (BENCH_sweep.json at the
// module root) keeps a dated history of recordings of ns/op, B/op and
// allocs/op per benchmark, and Compare fails when a current run
// regresses past the configured headroom over the latest recording.
//
// The two metrics are held to very different standards. allocs/op is
// near-deterministic — the same code allocates the same number of times
// — so it is gated tightly (default 10% plus an absolute slack of 2):
// an allocation creeping onto the hot path shows up as 1 -> 2, not as
// noise. ns/op varies wildly across machines and CI load, so its
// default headroom is 4x: the gate catches "accidentally quadratic",
// not a noisy neighbor.
package benchgate

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measured metrics. AllocsSet distinguishes
// "0 allocs/op" from "run without -benchmem".
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	AllocsSet   bool    `json:"allocs_set"`
}

// Baseline is one recording of the gated benchmarks.
type Baseline struct {
	// Date is the day the recording was made (YYYY-MM-DD).
	Date string `json:"date,omitempty"`
	// Note documents how the numbers were produced (machine, command),
	// for whoever re-records them.
	Note       string            `json:"note,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// file is the baseline file's layout: every recording, oldest first.
// The gate compares against the last one.
type file struct {
	History []Baseline `json:"history"`
}

// Limits is the allowed headroom over the baseline.
type Limits struct {
	NsRatio     float64 // current ns/op may be up to NsRatio * baseline
	AllocsRatio float64 // current allocs/op may be up to AllocsRatio * baseline...
	AllocsSlack float64 // ...plus this absolute allowance (covers 0 -> small)
}

// DefaultLimits returns the CI gate headroom.
func DefaultLimits() Limits {
	return Limits{NsRatio: 4.0, AllocsRatio: 1.10, AllocsSlack: 2}
}

// Delta is one benchmark's comparison against the baseline.
type Delta struct {
	Name     string
	Base     Result
	Current  Result
	NsRatio  float64 // current / base, 0 when base ns/op is 0
	Verdicts []string
}

// Regressed reports whether any limit was exceeded.
func (d *Delta) Regressed() bool { return len(d.Verdicts) > 0 }

// ParseBench extracts benchmark result lines from `go test -bench`
// output. Names are normalized by stripping the trailing -N GOMAXPROCS
// suffix; custom b.ReportMetric units are ignored. Duplicate names
// (the same benchmark from several -count runs) reduce to the median of
// each metric, so one noisy run neither fails nor hides a regression.
func ParseBench(r io.Reader) (map[string]Result, error) {
	runs := make(map[string][]Result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iteration count, then value/unit pairs.
		if len(fields) < 4 {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue // not a result line (e.g. "BenchmarkFoo ... FAIL")
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var res Result
		known := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
				known = true
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
				res.AllocsSet = true
				known = true
			}
		}
		if !known {
			continue
		}
		runs[name] = append(runs[name], res)
	}
	out := make(map[string]Result, len(runs))
	for name, rs := range runs {
		out[name] = medianResult(rs)
	}
	return out, sc.Err()
}

// medianResult reduces repeated runs of one benchmark to the per-metric
// median (the mean of the middle two for an even count). allocs/op
// counts as set only if every run reported it.
func medianResult(rs []Result) Result {
	m := Result{AllocsSet: true}
	for _, r := range rs {
		m.AllocsSet = m.AllocsSet && r.AllocsSet
	}
	m.NsPerOp = median(rs, func(r Result) float64 { return r.NsPerOp })
	m.BytesPerOp = median(rs, func(r Result) float64 { return r.BytesPerOp })
	m.AllocsPerOp = median(rs, func(r Result) float64 { return r.AllocsPerOp })
	return m
}

// median returns the median of one metric across rs.
func median(rs []Result, metric func(Result) float64) float64 {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = metric(r)
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// Compare checks every baselined benchmark against the current run.
// Benchmarks in the baseline but absent from current are reported via
// missing (the baseline is stale or the run was partial — the caller
// decides whether that fails); benchmarks only in current are ignored
// until someone baselines them.
func Compare(base *Baseline, current map[string]Result, lim Limits) (deltas []Delta, missing []string) {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := current[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		d := Delta{Name: name, Base: b, Current: c}
		if b.NsPerOp > 0 {
			d.NsRatio = c.NsPerOp / b.NsPerOp
			if d.NsRatio > lim.NsRatio {
				d.Verdicts = append(d.Verdicts, fmt.Sprintf(
					"ns/op regressed %.2fx (%.0f -> %.0f, limit %.2fx)",
					d.NsRatio, b.NsPerOp, c.NsPerOp, lim.NsRatio))
			}
		}
		if b.AllocsSet && c.AllocsSet {
			allowed := b.AllocsPerOp*lim.AllocsRatio + lim.AllocsSlack
			if c.AllocsPerOp > allowed {
				d.Verdicts = append(d.Verdicts, fmt.Sprintf(
					"allocs/op regressed (%g -> %g, allowed %g)",
					b.AllocsPerOp, c.AllocsPerOp, allowed))
			}
		} else if b.AllocsSet && !c.AllocsSet {
			d.Verdicts = append(d.Verdicts,
				"allocs/op missing from current run: pass -benchmem")
		}
		deltas = append(deltas, d)
	}
	return deltas, missing
}

// LoadHistory reads every recording in a baseline file, oldest first.
func LoadHistory(path string) ([]Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f file
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.History == nil {
		return nil, fmt.Errorf("%s: no history", path)
	}
	for i := range f.History {
		if f.History[i].Benchmarks == nil {
			f.History[i].Benchmarks = map[string]Result{}
		}
	}
	return f.History, nil
}

// Load reads the latest recording in a baseline file: the one the gate
// compares against.
func Load(path string) (*Baseline, error) {
	h, err := LoadHistory(path)
	if err != nil {
		return nil, err
	}
	if len(h) == 0 {
		return nil, fmt.Errorf("%s: empty history", path)
	}
	return &h[len(h)-1], nil
}

// Append adds b to the history in path as its latest recording,
// creating the file if it does not exist. A benchmark the previous
// latest recording gated but b lacks keeps its old numbers, so a
// partial re-record never drops a gate.
func Append(path string, b *Baseline) error {
	h, err := LoadHistory(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	entry := Baseline{Date: b.Date, Note: b.Note, Benchmarks: make(map[string]Result)}
	if len(h) > 0 {
		for name, r := range h[len(h)-1].Benchmarks {
			entry.Benchmarks[name] = r
		}
	}
	for name, r := range b.Benchmarks {
		entry.Benchmarks[name] = r
	}
	data, err := json.MarshalIndent(file{History: append(h, entry)}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Report renders the comparison as the human-readable artifact CI
// uploads: one line per benchmark, verdict lines indented under it.
func Report(deltas []Delta, missing []string) string {
	var sb strings.Builder
	for _, d := range deltas {
		status := "ok"
		if d.Regressed() {
			status = "REGRESSED"
		}
		fmt.Fprintf(&sb, "%-28s %-9s ns/op %.0f -> %.0f", d.Name, status, d.Base.NsPerOp, d.Current.NsPerOp)
		if d.Base.AllocsSet && d.Current.AllocsSet {
			fmt.Fprintf(&sb, "  allocs/op %g -> %g", d.Base.AllocsPerOp, d.Current.AllocsPerOp)
		}
		sb.WriteByte('\n')
		for _, v := range d.Verdicts {
			fmt.Fprintf(&sb, "    %s\n", v)
		}
	}
	for _, name := range missing {
		fmt.Fprintf(&sb, "%-28s MISSING   baselined but not in this run (stale entry or partial -bench?)\n", name)
	}
	return sb.String()
}
