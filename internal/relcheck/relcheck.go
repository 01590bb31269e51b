// Package relcheck is the statistical reliability verification harness:
// statistical model checking over the fault-injection subsystem, in the
// spirit of probabilistic NoC verification (arXiv:2108.13148). For every
// (mechanism, fault spec) cell it runs N independently seeded trials
// through the sweep engine, tracks per-packet delivery/loss outcomes,
// computes a binomial confidence interval on the delivery probability
// (Wilson by default, exact Clopper-Pearson on request) plus a
// tail-latency bound, and classifies the cell:
//
//   - HELD: every offered packet was delivered in every trial;
//   - DEGRADED-GRACEFULLY: packets were lost or left in flight, but
//     every loss was explicitly classified and every invariant held —
//     the connectivity guarantee is relaxed to the surviving component;
//   - VIOLATED: a trial tripped a correctness oracle (flovdebug
//     invariant panic, deadlock watchdog, conservation breach) or failed
//     to build; the cell records the failing seed so the trial can be
//     replayed under flovsim.
//
// Every trial is a plain sweep.Job, so the content-addressed result
// cache and the engine's panic isolation apply per trial, and a trial is
// byte-identical across processes for a given spec.
package relcheck

import (
	"context"
	"encoding/json"
	"fmt"

	"flov/internal/config"
	"flov/internal/fault"
	"flov/internal/sim"
	"flov/internal/stats"
	"flov/internal/sweep"
	"flov/internal/topology"
	"flov/internal/traffic"
)

// Spec describes one reliability verification matrix: the cross product
// of Mechanisms and Faults, Trials seeded runs per cell.
type Spec struct {
	// Config is the base testbed configuration. Seed and WarmupCycles are
	// overridden per trial: each trial t runs with Seed = SeedBase + t and
	// no warmup phase, so every created packet is measured and the
	// accounting identity offered = delivered + lost + stragglers is
	// exact.
	Config config.Config

	// Synthetic workload shared by every cell.
	Pattern  traffic.Pattern
	Rate     float64 // offered load (flits/cycle/node)
	Frac     float64 // fraction of cores power-gated
	Protect  []int   // node ids never gated
	Hotspots []int   // hotspot destinations (Hotspot pattern only)

	// Mechanisms are the gating policies under verification (rows).
	Mechanisms []config.Mechanism
	// Faults are the fault scenarios (columns). A zero-rate, empty-
	// schedule spec is the fault-free control column.
	Faults []fault.Spec

	// Trials is the number of seeded runs per cell.
	Trials int
	// SeedBase is the traffic seed of trial 0; trial t uses SeedBase+t.
	SeedBase uint64
	// Confidence is the CI level on delivery probability (0 means 0.95).
	Confidence float64
	// Exact selects the exact Clopper-Pearson interval over Wilson.
	Exact bool
}

// confidence returns the effective CI level.
func (s Spec) confidence() float64 {
	if s.Confidence == 0 {
		return 0.95
	}
	return s.Confidence
}

// Validate rejects malformed specs before any trial runs.
func (s Spec) Validate() error {
	if s.Trials < 1 {
		return fmt.Errorf("relcheck: need at least 1 trial, got %d", s.Trials)
	}
	if len(s.Mechanisms) == 0 {
		return fmt.Errorf("relcheck: no mechanisms to verify")
	}
	if len(s.Faults) == 0 {
		return fmt.Errorf("relcheck: no fault scenarios (use a zero spec for a fault-free control)")
	}
	if c := s.Confidence; c < 0 || c >= 1 {
		return fmt.Errorf("relcheck: confidence %g outside (0,1) (0 means the 0.95 default)", c)
	}
	mesh, err := topology.NewMesh(s.Config.Width, s.Config.Height)
	if err != nil {
		return fmt.Errorf("relcheck: %w", err)
	}
	for i, fs := range s.Faults {
		if err := fs.Validate(mesh); err != nil {
			return fmt.Errorf("relcheck: fault scenario %d: %w", i, err)
		}
	}
	return nil
}

// streamLabel names this package's seed stream in sim.DeriveSeed; the
// value spells "flovrel" and must never change (it is baked into every
// cached trial's identity).
const streamLabel = 0x666c6f7672656c

// trialFaultSeed derives the fault-RNG seed for one trial: the scenario's
// own seed XOR an avalanche of the trial index, so every trial draws an
// independent fault timeline while staying a pure function of the spec.
// The arithmetic lives in sim.DeriveSeed, shared with the optimizer's
// search streams, so the layers cannot drift on seed semantics.
func trialFaultSeed(base, specSeed uint64, trial int) uint64 {
	return sim.DeriveSeed(base, specSeed, streamLabel, trial)
}

// Jobs expands the spec into one sweep job per trial, cell-major in
// (mechanism, fault, trial) order — the order report consumes. The
// derivations are chosen so a trial is replayable under flovsim with the
// recorded seeds alone: Config.Seed doubles as the gated-set seed
// (sim.MaskSeed, flovsim's own -seed derivation) and the fault spec
// embeds its per-trial seed verbatim.
func (s Spec) Jobs() []sweep.Job {
	jobs := make([]sweep.Job, 0, len(s.Mechanisms)*len(s.Faults)*s.Trials)
	for _, mech := range s.Mechanisms {
		for fi := range s.Faults {
			for t := 0; t < s.Trials; t++ {
				cfg := s.Config
				cfg.Mechanism = config.MechanismCode(mech)
				cfg.Seed = s.SeedBase + uint64(t)
				cfg.WarmupCycles = 0
				fs := s.Faults[fi]
				fs.Seed = trialFaultSeed(s.SeedBase, fs.Seed, t)
				jobs = append(jobs, sweep.Job{
					Kind:      sweep.Synthetic,
					Config:    cfg,
					Pattern:   s.Pattern,
					Rate:      s.Rate,
					Frac:      s.Frac,
					MaskSeed:  sim.MaskSeed(cfg.Seed),
					Protect:   s.Protect,
					Hotspots:  s.Hotspots,
					Mechanism: mech,
					Faults:    &fs,
				})
			}
		}
	}
	return jobs
}

// Verdict classifies one cell.
type Verdict int

// Cell verdicts, ordered by severity.
const (
	Held Verdict = iota
	Degraded
	Violated
)

// String renders the verdict as printed in the table.
func (v Verdict) String() string {
	switch v {
	case Held:
		return "HELD"
	case Degraded:
		return "DEGRADED-GRACEFULLY"
	case Violated:
		return "VIOLATED"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// MarshalJSON renders the symbolic name.
func (v Verdict) MarshalJSON() ([]byte, error) { return json.Marshal(v.String()) }

// UnmarshalJSON parses the symbolic name.
func (v *Verdict) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "HELD":
		*v = Held
	case "DEGRADED-GRACEFULLY":
		*v = Degraded
	case "VIOLATED":
		*v = Violated
	default:
		return fmt.Errorf("relcheck: unknown verdict %q", s)
	}
	return nil
}

// Trial is the per-packet accounting of one seeded run.
type Trial struct {
	Trial     int    `json:"trial"`
	Seed      uint64 `json:"seed"`       // traffic seed (flovsim -seed)
	FaultSeed uint64 `json:"fault_seed"` // derived fault-RNG seed

	Offered   int64 `json:"offered"`   // packets created
	Delivered int64 `json:"delivered"` // packets ejected at their destination
	Lost      int64 `json:"lost,omitempty"`
	// Stragglers are packets neither delivered nor classified when the
	// drain budget expired — flits wedged mid-transfer into dead hardware.
	Stragglers     int64  `json:"stragglers,omitempty"`
	P99            int64  `json:"p99"` // p99 latency upper bound (cycles)
	FaultsInjected int64  `json:"faults_injected,omitempty"`
	Err            string `json:"err,omitempty"` // oracle trip (panic, build failure)
}

// Cell aggregates the trials of one (mechanism, fault scenario) pair.
type Cell struct {
	Mechanism  string     `json:"mechanism"`
	FaultIndex int        `json:"fault_index"`
	Fault      fault.Spec `json:"fault"`
	Trials     []Trial    `json:"trials"`

	Offered    int64 `json:"offered"`
	Delivered  int64 `json:"delivered"`
	Lost       int64 `json:"lost"`
	Stragglers int64 `json:"stragglers"`

	// DeliveryP is the point estimate Delivered/Offered; CI brackets it
	// at the report's confidence level.
	DeliveryP float64        `json:"delivery_p"`
	CI        stats.Interval `json:"ci"`
	MaxP99    int64          `json:"max_p99"` // worst p99 bound over trials

	Verdict    Verdict `json:"verdict"`
	Violations int     `json:"violations,omitempty"` // trials that tripped an oracle
	FailedSeed uint64  `json:"failed_seed,omitempty"`
	Err        string  `json:"err,omitempty"` // first oracle message
}

// Report is the full verdict matrix of one Run.
type Report struct {
	Trials     int     `json:"trials"`
	Confidence float64 `json:"confidence"`
	Exact      bool    `json:"exact,omitempty"`
	Cells      []Cell  `json:"cells"`
}

// Violated reports whether any cell tripped an oracle.
func (r Report) Violated() bool {
	for _, c := range r.Cells {
		if c.Verdict == Violated {
			return true
		}
	}
	return false
}

// Options configures Run's execution environment.
type Options struct {
	// Workers caps the engine pool; <= 0 means GOMAXPROCS.
	Workers int
	// Cache, when non-nil, memoizes trial results (trials hash like any
	// other sweep job, fault spec included).
	Cache *sweep.Cache
	// Progress, when non-nil, observes per-trial lifecycle events.
	Progress sweep.Progress
}

// Run executes every trial of the matrix across a worker pool and
// aggregates the verdict table. Trial failures (including simulator
// panics — the oracle signal) are isolated per trial and classified;
// the error return covers spec problems and cancellation only.
func Run(ctx context.Context, s Spec, o Options) (Report, error) {
	if err := s.Validate(); err != nil {
		return Report{}, err
	}
	e := &sweep.Engine{Workers: o.Workers, Cache: o.Cache, Progress: o.Progress}
	results := e.Run(ctx, s.Jobs())
	if err := ctx.Err(); err != nil {
		return Report{}, fmt.Errorf("relcheck: run canceled: %w", err)
	}
	return s.report(results), nil
}

// report folds engine results (in Jobs order) into the verdict matrix.
func (s Spec) report(results []sweep.Result) Report {
	conf := s.confidence()
	rep := Report{Trials: s.Trials, Confidence: conf, Exact: s.Exact}
	i := 0
	for _, mech := range s.Mechanisms {
		for fi := range s.Faults {
			c := Cell{Mechanism: mech.String(), FaultIndex: fi, Fault: s.Faults[fi]}
			for t := 0; t < s.Trials; t++ {
				r := results[i]
				i++
				tr := Trial{
					Trial:     t,
					Seed:      r.Job.Config.Seed,
					FaultSeed: r.Job.Faults.Seed,
					Err:       r.Err,
				}
				if r.Err == "" {
					res := r.Res
					tr.Offered = res.OfferedPkts
					tr.Delivered = res.Packets
					tr.Lost = res.LostPkts
					// Deliberately unclamped: a negative straggler count
					// means the accounting identity broke, and the verdict
					// logic below treats that as loud degradation, not noise.
					tr.Stragglers = res.OfferedPkts - res.Packets - res.LostPkts
					tr.P99 = res.P99Latency
					tr.FaultsInjected = res.FaultsInjected
					c.Offered += tr.Offered
					c.Delivered += tr.Delivered
					c.Lost += tr.Lost
					c.Stragglers += tr.Stragglers
					if tr.P99 > c.MaxP99 {
						c.MaxP99 = tr.P99
					}
				} else {
					c.Violations++
					if c.Err == "" {
						c.Err = r.Err
						c.FailedSeed = tr.Seed
					}
				}
				c.Trials = append(c.Trials, tr)
			}
			switch {
			case c.Violations > 0:
				c.Verdict = Violated
			case c.Lost > 0 || c.Stragglers != 0:
				c.Verdict = Degraded
			default:
				c.Verdict = Held
			}
			if c.Offered > 0 {
				c.DeliveryP = float64(c.Delivered) / float64(c.Offered)
			}
			if s.Exact {
				c.CI = stats.ClopperPearson(c.Delivered, c.Offered, conf)
			} else {
				c.CI = stats.WilsonInterval(c.Delivered, c.Offered, conf)
			}
			rep.Cells = append(rep.Cells, c)
		}
	}
	return rep
}
