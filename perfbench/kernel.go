package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"flov"
	"flov/internal/core"
)

// chunkCycles is the probe granularity: traced ops advance the
// simulation this many cycles per RunTo/RunUntil call and sample the
// routers' power states in between.
const chunkCycles = 1000

// parsecMaxCycles bounds the PARSEC run; RunPARSEC's own default, passed
// explicitly so the traced loop uses the same bound.
const parsecMaxCycles = 20_000_000

// outcome is what one op produced: the digest of its rows, the simulated
// cycles they cover, and a reason the op failed although it returned no
// error (an undelivered flit, a cache miss).
type outcome struct {
	digest string
	cycles int64
	fail   string
}

func digestJSON(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// synthetic is a single synthetic-traffic point run through
// flov.RunSynthetic: lowload and saturation.
type synthetic struct{ opts flov.SyntheticOptions }

// newSynthetic builds a gFLOV uniform-traffic point on the Table I mesh.
func newSynthetic(seed uint64, rate, gated float64, warmup, total int64) *synthetic {
	cfg := flov.Default()
	cfg.Seed = seed
	cfg.WarmupCycles = warmup
	cfg.TotalCycles = total
	return &synthetic{opts: flov.SyntheticOptions{
		Config:        cfg,
		Mechanism:     flov.GFLOV,
		Pattern:       flov.Uniform,
		InjRate:       rate,
		GatedFraction: gated,
		GatedSeed:     seed,
	}}
}

func (w *synthetic) setupReps() int { return kernelSetupReps }

func (w *synthetic) setup(p *probes) (opTime, error) {
	return timedBuild(p, func() error {
		_, err := flov.Build(w.opts)
		return err
	})
}

func (w *synthetic) op(p *probes) (outcome, opTime, error) {
	if p != nil {
		return w.tracedOp(p)
	}
	sw := startWatch()
	res, err := flov.RunSynthetic(w.opts)
	t := sw.stop()
	if err != nil {
		return outcome{}, t, err
	}
	out, err := synthOutcome(res)
	return out, t, err
}

func synthOutcome(res flov.Results) (outcome, error) {
	d, err := digestJSON(res)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{digest: d, cycles: res.RunCycles}
	if res.Undelivered != 0 {
		out.fail = fmt.Sprintf("%d flits undelivered", res.Undelivered)
	}
	return out, nil
}

// tracedOp runs the same point as op, advanced in RunTo chunks with the
// router states sampled in between and the drain timed on its own.
func (w *synthetic) tracedOp(p *probes) (outcome, opTime, error) {
	p.beginOp()
	m0 := readMem()
	b := p.begin("network.build", p.root)
	n, err := flov.Build(w.opts)
	p.end(b)
	if err != nil {
		return outcome{}, p.endOp(), err
	}
	k := watchKernel(n)
	for c := n.Now(); c < n.Cfg.TotalCycles; c = n.Now() {
		s := p.begin("network.run_to", p.root)
		n.RunTo(min(c+chunkCycles, n.Cfg.TotalCycles))
		p.end(s)
		p.add("network.chunk_cycles", float64(n.Now()-c))
		k.sample()
	}
	d := p.begin("network.drain", p.root)
	res := n.Run()
	p.end(d)
	mem := readMem().since(m0)
	t := p.endOp()
	k.record(p, res.OfferedPkts, res.RunCycles, mem)
	out, err := synthOutcome(res)
	return out, t, err
}

func (w *synthetic) layerMetrics(p *probes) (map[string]float64, error) {
	m := kernelLayerMetrics(p)
	chunks := perCycleUS(p.durations("network.run_to"), p.samples["network.chunk_cycles"])
	m["network.cycle_us"] = median(chunks)
	m["network.cycle_us_p99"] = quantile(chunks, 0.99)
	m["network.drain_ms"] = median(p.durations("network.drain")) / 1e6
	return m, nil
}

func (w *synthetic) close() error { return nil }

// parsec is one closed-loop PARSEC-substitute run under gFLOV with
// dynamic gating, through flov.RunPARSEC.
type parsec struct {
	bench string
	seed  uint64
}

func (w *parsec) setupReps() int { return kernelSetupReps }

func (w *parsec) setup(p *probes) (opTime, error) {
	return timedBuild(p, func() error {
		_, _, err := flov.BuildPARSEC(w.bench, flov.GFLOV, w.seed)
		return err
	})
}

func (w *parsec) op(p *probes) (outcome, opTime, error) {
	if p != nil {
		return w.tracedOp(p)
	}
	sw := startWatch()
	out, err := flov.RunPARSEC(w.bench, flov.GFLOV, w.seed, parsecMaxCycles)
	t := sw.stop()
	if err != nil {
		return outcome{}, t, err
	}
	d, err := digestJSON(out)
	return outcome{digest: d, cycles: out.RuntimeCyc}, t, err
}

// tracedOp runs the same benchmark as op through the driver's RunUntil
// in chunks, sampling router states in between.
func (w *parsec) tracedOp(p *probes) (outcome, opTime, error) {
	p.beginOp()
	m0 := readMem()
	b := p.begin("network.build", p.root)
	n, d, err := flov.BuildPARSEC(w.bench, flov.GFLOV, w.seed)
	p.end(b)
	if err != nil {
		return outcome{}, p.endOp(), err
	}
	k := watchKernel(n)
	for !d.Finished() && n.Now() < parsecMaxCycles {
		from := n.Now()
		s := p.begin("trace.run_until", p.root)
		d.RunUntil(min(from+chunkCycles, parsecMaxCycles))
		p.end(s)
		p.add("trace.chunk_cycles", float64(n.Now()-from))
		k.sample()
	}
	res := d.Outcome()
	mem := readMem().since(m0)
	t := p.endOp()
	k.record(p, n.Stats.Created(), res.RuntimeCyc, mem)
	p.add("trace.transactions", float64(res.Transactions))
	if !res.Completed {
		return outcome{}, t, fmt.Errorf("%s did not complete within %d cycles", w.bench, parsecMaxCycles)
	}
	digest, err := digestJSON(res)
	return outcome{digest: digest, cycles: res.RuntimeCyc}, t, err
}

func (w *parsec) layerMetrics(p *probes) (map[string]float64, error) {
	m := kernelLayerMetrics(p)
	m["trace.cycle_us"] = median(perCycleUS(p.durations("trace.run_until"), p.samples["trace.chunk_cycles"]))
	m["trace.transactions"] = median(p.samples["trace.transactions"])
	return m, nil
}

func (w *parsec) close() error { return nil }

// kernelSetupReps is how many builds one run times for setup_s; a build
// takes well under a millisecond, so many are needed for a steady median.
const kernelSetupReps = 101

// timedBuild times one network (or driver) build, from a collected heap
// so every build starts from the same state. With probes it also records
// the build span and its heap allocations.
func timedBuild(p *probes, build func() error) (opTime, error) {
	var m0 memDelta
	var s int
	if p != nil {
		m0 = readMem()
		s = p.begin("network.build", 0)
	}
	sw := startWatch()
	err := build()
	t := sw.stop()
	if p != nil {
		p.end(s)
		p.add("network.build_allocs", float64(readMem().since(m0).mallocs))
	}
	return t, err
}

// kernelWatch observes one gFLOV network from outside: router power
// states sampled between chunks and transitions counted through the
// mechanism's observer.
type kernelWatch struct {
	n           *flov.Network
	mech        *core.Mechanism
	asleep      int
	seen        int
	transitions int
}

func watchKernel(n *flov.Network) *kernelWatch {
	k := &kernelWatch{n: n}
	if m, ok := n.Mech.(*core.Mechanism); ok {
		k.mech = m
		prev := m.OnTransition
		m.OnTransition = func(now int64, id int, from, to core.PowerState) {
			k.transitions++
			if prev != nil {
				prev(now, id, from, to)
			}
		}
	}
	return k
}

func (k *kernelWatch) sample() {
	if k.mech == nil {
		return
	}
	for id := range k.n.Routers {
		if k.mech.RouterState(id) == core.Sleep {
			k.asleep++
		}
	}
	k.seen += len(k.n.Routers)
}

// record files the op's counters: packets offered, flits moved through
// or over every router, power-state behaviour and heap activity.
func (k *kernelWatch) record(p *probes, packets, cycles int64, mem memDelta) {
	var hops int64
	for id := range k.n.Routers {
		hops += flov.RouterActivity(k.n, id)
	}
	frac := 0.0
	if k.seen > 0 {
		frac = float64(k.asleep) / float64(k.seen)
	}
	p.add("core.sleep_frac", frac)
	p.add("core.transitions", float64(k.transitions))
	p.add("router.flit_hops", float64(hops))
	p.add("traffic.packets", float64(packets))
	p.add("network.allocs_per_kcycle", float64(mem.mallocs)/(float64(cycles)/1000))
	p.add("network.gc_per_op", float64(mem.gcs))
}

// kernelLayerMetrics summarizes what every kernel workload records.
func kernelLayerMetrics(p *probes) map[string]float64 {
	ops := p.durations("op")
	hops := p.samples["router.flit_hops"]
	var nsPerHop []float64
	for i := range ops {
		if i < len(hops) && hops[i] > 0 {
			nsPerHop = append(nsPerHop, ops[i]/hops[i])
		}
	}
	return map[string]float64{
		"network.build_ms":          median(p.durations("network.build")) / 1e6,
		"network.build_allocs":      median(p.samples["network.build_allocs"]),
		"network.allocs_per_kcycle": median(p.samples["network.allocs_per_kcycle"]),
		"network.gc_per_op":         median(p.samples["network.gc_per_op"]),
		"core.sleep_frac":           mean(p.samples["core.sleep_frac"]),
		"core.transitions":          median(p.samples["core.transitions"]),
		"router.flit_hops":          median(hops),
		"router.ns_per_flit_hop":    median(nsPerHop),
		"traffic.packets":           median(p.samples["traffic.packets"]),
	}
}

// perCycleUS converts chunk durations (ns) to microseconds per simulated
// cycle, given each chunk's length in cycles.
func perCycleUS(durs, cycles []float64) []float64 {
	out := make([]float64, 0, len(durs))
	for i, d := range durs {
		if i < len(cycles) && cycles[i] > 0 {
			out = append(out, d/cycles[i]/1e3)
		}
	}
	return out
}
