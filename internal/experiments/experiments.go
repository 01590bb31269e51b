// Package experiments drives every evaluation experiment of the paper —
// one function per figure/table — and returns structured rows that
// cmd/figures renders as CSV/ASCII and bench_test.go reports as metrics.
//
// All experiments hold the gated-core set fixed across mechanisms (same
// seed), so differences are attributable to the mechanism alone.
package experiments

import (
	"context"

	"flov/internal/config"
	"flov/internal/gating"
	"flov/internal/network"
	"flov/internal/sim"
	"flov/internal/stats"
	"flov/internal/sweep"
	"flov/internal/topology"
	"flov/internal/traffic"
)

// Options control experiment scale and execution.
type Options struct {
	// Quick shrinks cycle counts ~5x for smoke runs and -short tests.
	Quick bool
	// Seed for gated-set draws (identical across mechanisms).
	Seed uint64
	// Engine runs the sweep points; nil means a default parallel engine
	// (GOMAXPROCS workers, no cache). cmd/figures wires in caching and
	// progress reporting here.
	Engine *sweep.Engine
}

// engine returns the configured engine or a default parallel one.
func (o Options) engine() *sweep.Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return &sweep.Engine{}
}

// cycles returns (warmup, total) for synthetic runs.
func (o Options) cycles() (int64, int64) {
	if o.Quick {
		return 2_000, 20_000
	}
	return 10_000, 100_000
}

// DefaultFractions is the gated-core sweep of Figs. 6, 7, 8 and 9.
var DefaultFractions = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}

// DefaultRates are the two injection rates of Figs. 6 and 7.
var DefaultRates = []float64{0.02, 0.08}

// SweepRow is one point of the Fig. 6/7/8/9 sweeps.
type SweepRow struct {
	Pattern   string
	Rate      float64
	Frac      float64
	Mechanism string

	AvgLatency     float64
	StaticPowerW   float64
	DynamicPowerW  float64
	TotalPowerW    float64
	Breakdown      stats.Breakdown
	GatedRouters   int
	Packets        int64
	Undelivered    int64
	EscapeFraction float64

	// Err marks a failed point (simulator error or panic). The row keeps
	// its identifying fields so figures can report what was skipped; the
	// measurements are zero.
	Err string
}

// job builds the sweep job for one synthetic point with the standard
// experiment config (o.cycles scale, seed derivation shared with the
// sequential reference path below).
func (o Options) job(pattern traffic.Pattern, rate, frac float64, mech config.Mechanism) sweep.Job {
	cfg := config.Default()
	cfg.WarmupCycles, cfg.TotalCycles = o.cycles()
	cfg.Seed = o.Seed + 1
	return o.jobWithConfig(cfg, pattern, rate, frac, mech)
}

// jobWithConfig builds a job around an explicit config (ablation sweeps
// tweak individual knobs).
func (o Options) jobWithConfig(cfg config.Config, pattern traffic.Pattern, rate, frac float64, mech config.Mechanism) sweep.Job {
	cfg.Mechanism = config.MechanismCode(mech)
	return sweep.Job{
		Kind:      sweep.Synthetic,
		Config:    cfg,
		Pattern:   pattern,
		Rate:      rate,
		Frac:      frac,
		Mechanism: mech,
		MaskSeed:  o.Seed ^ 0x5eed,
	}
}

// runJobs fans the jobs through the engine and converts results to rows.
// Individual point failures become error-carrying rows, not a sweep
// abort.
func runJobs(o Options, jobs []sweep.Job) []SweepRow {
	results := o.engine().Run(context.Background(), jobs)
	rows := make([]SweepRow, len(results))
	for i, r := range results {
		rows[i] = rowFromResult(r)
	}
	return rows
}

// rowFromResult flattens one engine result into a SweepRow.
func rowFromResult(r sweep.Result) SweepRow {
	row := SweepRow{
		Pattern:   r.Job.Pattern.String(),
		Rate:      r.Job.Rate,
		Frac:      r.Job.Frac,
		Mechanism: r.Job.Mechanism.String(),
		Err:       r.Err,
	}
	if r.Err != "" {
		return row
	}
	res := r.Res
	row.AvgLatency = res.AvgLatency
	row.StaticPowerW = res.StaticPowerW
	row.DynamicPowerW = res.DynamicPowerW
	row.TotalPowerW = res.TotalPowerW
	row.Breakdown = res.Breakdown
	row.GatedRouters = res.GatedRouters
	row.Packets = res.Packets
	row.Undelivered = res.Undelivered
	row.EscapeFraction = res.EscapeFrac
	return row
}

// buildAndRun assembles one synthetic configuration and runs it in the
// calling goroutine. It is the sequential reference implementation the
// engine path is tested against (and what the shape tests use for
// single points).
func buildAndRun(pattern traffic.Pattern, rate, frac float64, mech config.Mechanism, o Options) (SweepRow, error) {
	cfg := config.Default()
	cfg.WarmupCycles, cfg.TotalCycles = o.cycles()
	cfg.Seed = o.Seed + 1
	return runWithConfig(cfg, pattern, rate, frac, mech, o)
}

// runWithConfig runs one synthetic experiment sequentially with an
// explicit config.
func runWithConfig(cfg config.Config, pattern traffic.Pattern, rate, frac float64, mech config.Mechanism, o Options) (SweepRow, error) {
	mesh, err := topology.NewMesh(cfg.Width, cfg.Height)
	if err != nil {
		return SweepRow{}, err
	}
	mask := gating.FractionGated(mesh, frac, nil, sim.NewRNG(o.Seed^0x5eed))
	gen := traffic.NewGenerator(pattern, mesh, nil)
	m, err := sweep.NewMechanism(mech)
	if err != nil {
		return SweepRow{}, err
	}
	n, err := network.New(cfg, m, gating.Static(mask), gen, rate)
	if err != nil {
		return SweepRow{}, err
	}
	res := n.Run()
	return SweepRow{
		Pattern:        pattern.String(),
		Rate:           rate,
		Frac:           frac,
		Mechanism:      mech.String(),
		AvgLatency:     res.AvgLatency,
		StaticPowerW:   res.StaticPowerW,
		DynamicPowerW:  res.DynamicPowerW,
		TotalPowerW:    res.TotalPowerW,
		Breakdown:      res.Breakdown,
		GatedRouters:   res.GatedRouters,
		Packets:        res.Packets,
		Undelivered:    res.Undelivered,
		EscapeFraction: res.EscapeFrac,
	}, nil
}

// LatencyPowerSweep reproduces Fig. 6 (uniform) or Fig. 7 (tornado): the
// full rate x fraction x mechanism grid with latency, dynamic and total
// power, fanned out across the engine's worker pool.
func LatencyPowerSweep(pattern traffic.Pattern, o Options) ([]SweepRow, error) {
	var jobs []sweep.Job
	for _, rate := range DefaultRates {
		for _, frac := range DefaultFractions {
			for _, m := range config.Mechanisms() {
				jobs = append(jobs, o.job(pattern, rate, frac, m))
			}
		}
	}
	return runJobs(o, jobs), nil
}

// BreakdownSweep reproduces Fig. 8 (a)/(b): the latency decomposition at
// 0.02 flits/cycle/node across the gated-core sweep.
func BreakdownSweep(pattern traffic.Pattern, o Options) ([]SweepRow, error) {
	var jobs []sweep.Job
	for _, frac := range DefaultFractions {
		for _, m := range config.Mechanisms() {
			jobs = append(jobs, o.job(pattern, 0.02, frac, m))
		}
	}
	return runJobs(o, jobs), nil
}

// StaticPowerSweep reproduces Fig. 9: static power vs gated fraction per
// mechanism. Static power is workload independent for FLOV (the paper's
// observation), so a light uniform load suffices to settle power states.
func StaticPowerSweep(o Options) ([]SweepRow, error) {
	var jobs []sweep.Job
	for _, frac := range DefaultFractions {
		for _, m := range config.Mechanisms() {
			jobs = append(jobs, o.job(traffic.Uniform, 0.02, frac, m))
		}
	}
	return runJobs(o, jobs), nil
}
