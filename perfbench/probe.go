package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// hostNow reads the host's wall clock. The benchmark measures host time,
// so this is the one place it reads the clock the simulator must never
// use.
func hostNow() time.Time {
	return time.Now() //flovlint:allow nondeterm -- the benchmark's subject is host wall time
}

// opTime is the host time one op took: wall-clock time, and the CPU
// time of the whole process (every thread, so the collector's and the
// HTTP goroutines' work counts; time the hypervisor stole does not).
type opTime struct{ wall, cpu time.Duration }

// stopwatch measures an opTime from its start.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{wall: hostNow(), cpu: ownCPU()} }

func (s stopwatch) stop() opTime {
	return opTime{wall: hostNow().Sub(s.wall), cpu: ownCPU() - s.cpu}
}

// span is one timed interval at a layer boundary. Spans of one op share
// Op; Parent is the ID of the span that caused this one (0 for an op's
// root span).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// probes collects the traced run's spans and per-op counters in memory;
// nothing is written until the run ends.
type probes struct {
	epoch time.Time
	spans []span
	op    int // current op number, 1-based
	root  int // current op's root span ID
	watch stopwatch

	// samples holds named per-op or per-call measurements that are not
	// spans (counts, fractions, allocations).
	samples map[string][]float64
}

func newProbes() *probes {
	return &probes{
		epoch:   hostNow(),
		spans:   make([]span, 0, 4096),
		samples: make(map[string][]float64),
	}
}

// begin opens a span under parent and returns its ID; end closes it.
func (p *probes) begin(name string, parent int) int {
	p.spans = append(p.spans, span{
		ID:      len(p.spans) + 1,
		Parent:  parent,
		Op:      p.op,
		Name:    name,
		StartNS: hostNow().Sub(p.epoch).Nanoseconds(),
	})
	return len(p.spans)
}

func (p *probes) end(id int) { p.spans[id-1].EndNS = hostNow().Sub(p.epoch).Nanoseconds() }

// beginOp starts a new op's root span and its stopwatch.
func (p *probes) beginOp() {
	p.op++
	p.root = p.begin("op", 0)
	p.watch = startWatch()
}

// endOp closes the op's root span and returns the op's host time.
func (p *probes) endOp() opTime {
	t := p.watch.stop()
	p.end(p.root)
	return t
}

func (p *probes) add(name string, v float64) { p.samples[name] = append(p.samples[name], v) }

// durations lists the durations of every span with the given name.
func (p *probes) durations(name string) []float64 {
	var out []float64
	for _, s := range p.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// write dumps the spans and samples as one JSON document.
func (p *probes) write(path string, host hostRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Host    hostRecord           `json:"host"`
		Spans   []span               `json:"spans"`
		Samples map[string][]float64 `json:"samples"`
	}{host, p.spans, p.samples}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// memDelta reports heap allocations and GC cycles between two reads.
type memDelta struct{ mallocs, gcs uint64 }

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.Mallocs, uint64(ms.NumGC)}
}

func (a memDelta) since(b memDelta) memDelta { return memDelta{a.mallocs - b.mallocs, a.gcs - b.gcs} }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the median for q = 0.5); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
