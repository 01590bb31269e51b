// Package flov is a cycle-accurate 2D-mesh network-on-chip simulator with
// distributed router power-gating, reproducing "Fly-Over: A Light-Weight
// Distributed Power-Gating Mechanism for Energy-Efficient Networks-on-Chip"
// (Boyapati, Huang, Wang, Kim, Yum, Kim — IPDPS 2017).
//
// Four mechanisms are available:
//
//   - Baseline: no router power-gating, YX dimension-order routing;
//   - RP: Router Parking — centralized fabric manager, connectivity-
//     preserving parking, table routing, stall-the-network reconfiguration;
//   - RFLOV: restricted FLOV — distributed handshakes, no two adjacent
//     routers gated;
//   - GFLOV: generalized FLOV — arbitrary runs of gated routers with
//     handshake/credit relaying over FLOV links.
//
// The two entry points mirror the paper's evaluation: RunSynthetic drives
// the BookSim-style synthetic workloads (uniform random, tornado, ...)
// and RunPARSEC drives the gem5/PARSEC-substitute closed-loop workloads.
// Lower-level access (custom schedules, direct network stepping) is
// available through Build.
package flov

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"flov/internal/config"
	"flov/internal/fault"
	"flov/internal/gating"
	"flov/internal/network"
	"flov/internal/nlog"
	"flov/internal/sim"
	"flov/internal/stats"
	"flov/internal/sweep"
	"flov/internal/topology"
	"flov/internal/trace"
	"flov/internal/traffic"
)

// Re-exported configuration types. Config carries every Table I knob; see
// Default for the paper's values.
type (
	// Config is the full simulation configuration (Table I parameters).
	Config = config.Config
	// Mechanism selects the power-gating scheme.
	Mechanism = config.Mechanism
	// Pattern selects a synthetic traffic pattern.
	Pattern = traffic.Pattern
	// Results summarizes one synthetic run (latency, breakdown, power).
	Results = network.Results
	// Breakdown is the Fig. 8 latency decomposition.
	Breakdown = stats.Breakdown
	// TimeBin is one bin of the Fig. 10 latency timeline.
	TimeBin = stats.TimeBin
	// Network is a fully wired simulated NoC for custom experiments.
	Network = network.Network
	// Schedule is a time-ordered core power-gating schedule.
	Schedule = gating.Schedule
	// GatingEvent switches the gated-core set at a cycle.
	GatingEvent = gating.Event
	// Mesh describes the 2D mesh topology.
	Mesh = topology.Mesh
	// Profile characterizes one PARSEC-like benchmark.
	Profile = trace.Profile
	// Outcome is a full-system (PARSEC) run result.
	Outcome = trace.Outcome
	// TraceLog is a bounded event log attachable to a Network.
	TraceLog = nlog.Log
	// TraceEvent is one recorded simulator event.
	TraceEvent = nlog.Event
	// FaultSpec configures the deterministic fault-injection subsystem.
	FaultSpec = fault.Spec
	// FaultEvent is one scheduled fault in a FaultSpec.
	FaultEvent = fault.Event
)

// Mechanisms.
const (
	Baseline = config.Baseline
	RP       = config.RP
	RFLOV    = config.RFLOV
	GFLOV    = config.GFLOV
)

// Traffic patterns.
const (
	Uniform       = traffic.Uniform
	Tornado       = traffic.Tornado
	Transpose     = traffic.Transpose
	BitComplement = traffic.BitComplement
	Neighbor      = traffic.Neighbor
	Hotspot       = traffic.Hotspot
)

// Default returns the paper's Table I configuration (8x8 mesh, 3-stage
// routers, 6-flit buffers, 3+1 VCs per vnet, 1 vnet, 2 GHz, 17.7 pJ
// gating overhead, 10-cycle wakeup).
func Default() Config { return config.Default() }

// FullSystem returns the Table I full-system variant (3 virtual networks
// for the MESI traffic classes).
func FullSystem() Config { return config.FullSystem() }

// NewTraceLog returns an event log retaining the most recent capacity
// events; attach it with Network.EnableTrace before running.
func NewTraceLog(capacity int) *TraceLog { return nlog.New(capacity) }

// NewMesh constructs a 2D mesh topology description.
func NewMesh(width, height int) (Mesh, error) { return topology.NewMesh(width, height) }

// NewSchedule builds a core power-gating schedule from events (the first
// event must be at cycle 0, masks must cover n nodes).
func NewSchedule(n int, events []GatingEvent) (*Schedule, error) { return gating.New(n, events) }

// StaticSchedule builds a schedule with one constant gated set.
func StaticSchedule(gated []bool) *Schedule { return gating.Static(gated) }

// RandomGatedMask draws a mask gating `count` cores uniformly at random,
// never gating nodes in protect. The seed makes the draw reproducible.
func RandomGatedMask(m Mesh, count int, protect []int, seed uint64) []bool {
	return gating.RandomGated(m, count, protect, sim.NewRNG(seed))
}

// ParseFaultSpec decodes a fault-spec JSON document (the flovsim -faults
// and flovrel file format), rejecting unknown fields.
func ParseFaultSpec(data []byte) (FaultSpec, error) { return fault.ParseSpec(data) }

// ParseMechanism converts a name ("baseline", "rp", "rflov", "gflov").
func ParseMechanism(s string) (Mechanism, error) { return config.ParseMechanism(s) }

// ParsePattern converts a name ("uniform", "tornado", ...).
func ParsePattern(s string) (Pattern, error) { return traffic.ParsePattern(s) }

// AllMechanisms lists the four mechanisms in canonical figure order.
func AllMechanisms() []Mechanism { return config.Mechanisms() }

// AllPatterns lists every synthetic traffic pattern in canonical order,
// mirroring AllMechanisms. CLIs use it for help text and the
// design-space explorer for its pattern axis.
func AllPatterns() []Pattern { return traffic.Patterns() }

// NewMechanism instantiates the controller for a mechanism.
func NewMechanism(m Mechanism) (network.Mechanism, error) { return sweep.NewMechanism(m) }

// SyntheticOptions parameterizes a synthetic-workload run.
type SyntheticOptions struct {
	// Config defaults to Default() when zero-valued (detected via Width).
	Config Config
	// Mechanism under test.
	Mechanism Mechanism
	// Pattern of synthetic traffic.
	Pattern Pattern
	// InjRate is the offered load in flits/cycle/node.
	InjRate float64
	// GatedFraction of cores power-gated for the whole run (ignored when
	// Schedule is set).
	GatedFraction float64
	// GatedSeed selects the random gated set (same seed + fraction =>
	// same set across mechanisms, for apples-to-apples comparison).
	GatedSeed uint64
	// Protect lists node ids whose cores are never gated.
	Protect []int
	// Schedule overrides GatedFraction with a full gating timeline
	// (used by the Fig. 10 reconfiguration experiment).
	Schedule *Schedule
	// Hotspots are the destinations of the Hotspot pattern.
	Hotspots []int
	// Faults, when non-nil, attaches the deterministic fault-injection
	// subsystem. A zero-rate, empty-schedule spec leaves the run
	// byte-identical to a fault-free one.
	Faults *FaultSpec
}

// normalizedConfig fills in Default() when the caller left Config zero.
func (o SyntheticOptions) normalizedConfig() Config {
	if o.Config.Width == 0 {
		return Default()
	}
	return o.Config
}

// Build assembles (but does not run) a network for the given options,
// for callers that need cycle-level control. The returned network is
// ready to Step.
func Build(o SyntheticOptions) (*Network, error) {
	cfg := o.normalizedConfig()
	cfg.Mechanism = config.MechanismCode(o.Mechanism)
	mesh, err := topology.NewMesh(cfg.Width, cfg.Height)
	if err != nil {
		return nil, err
	}
	sched := o.Schedule
	if sched == nil {
		mask := gating.FractionGated(mesh, o.GatedFraction, o.Protect, sim.NewRNG(sim.MaskSeed(o.GatedSeed)))
		sched = gating.Static(mask)
	}
	gen := traffic.NewGenerator(o.Pattern, mesh, o.Hotspots)
	mech, err := NewMechanism(o.Mechanism)
	if err != nil {
		return nil, err
	}
	n, err := network.New(cfg, mech, sched, gen, o.InjRate)
	if err != nil {
		return nil, err
	}
	if o.Faults != nil {
		if err := n.AttachFaults(*o.Faults); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// RunSynthetic executes the standard synthetic experiment (warmup,
// measurement window, bounded drain) and returns its results.
func RunSynthetic(o SyntheticOptions) (Results, error) {
	n, err := Build(o)
	if err != nil {
		return Results{}, err
	}
	return n.Run(), nil
}

// Benchmarks lists the nine PARSEC-substitute benchmark names.
func Benchmarks() []string {
	ps := trace.Profiles()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// ProfileByName returns the profile for a benchmark name.
func ProfileByName(name string) (Profile, bool) { return trace.ProfileByName(name) }

// DefaultMaxCycles bounds a PARSEC run whose maxCycles is 0.
const DefaultMaxCycles = sweep.DefaultMaxCycles

// IncompleteError is the error of a PARSEC run of benchmark under m that
// reached its cycle bound before the benchmark finished; RunPARSEC
// reports the same text.
func IncompleteError(benchmark string, m Mechanism, bound int64) error {
	return sweep.IncompleteError(benchmark, m, bound)
}

// RunPARSEC executes one PARSEC-substitute benchmark under a mechanism
// and returns the full-system outcome (runtime + energy). seed controls
// the workload's random draws; identical seeds give identical work across
// mechanisms. maxCycles bounds the run (0 means DefaultMaxCycles).
func RunPARSEC(benchmark string, m Mechanism, seed uint64, maxCycles int64) (Outcome, error) {
	prof, ok := trace.ProfileByName(benchmark)
	if !ok {
		return Outcome{}, fmt.Errorf("flov: unknown benchmark %q", benchmark)
	}
	return RunProfile(prof, m, seed, maxCycles)
}

// RunProfile executes an arbitrary (possibly customized) profile.
func RunProfile(prof Profile, m Mechanism, seed uint64, maxCycles int64) (Outcome, error) {
	r := profileJob(prof, m, seed, maxCycles).Run()
	if r.Err != "" {
		return r.Out, errors.New(r.Err)
	}
	return r.Out, nil
}

// profileJob is the one PARSEC point setup behind RunProfile,
// BuildProfile and PARSECJob: the full-system config with no warmup and
// an unbounded measurement window (the driver ends the run), bounded by
// maxCycles (0 means DefaultMaxCycles).
func profileJob(prof Profile, m Mechanism, seed uint64, maxCycles int64) SweepJob {
	cfg := FullSystem()
	cfg.WarmupCycles = 0
	cfg.TotalCycles = 1 << 40
	cfg.Mechanism = config.MechanismCode(m)
	return SweepJob{
		Kind:      SweepPARSEC,
		Config:    cfg,
		Mechanism: m,
		Profile:   prof,
		Seed:      seed,
		MaxCycles: maxCycles,
	}
}

// Sweep engine types, re-exported for design-space exploration at scale.
// A sweep fans independent simulation points across a worker pool with
// content-addressed result caching; see cmd/flovsweep for the CLI.
type (
	// SweepJob fully describes one simulation point and hashes canonically.
	SweepJob = sweep.Job
	// SweepResult is one finished point (result or error, never both).
	SweepResult = sweep.Result
	// SweepSpec is the declarative grid description cmd/flovsweep accepts.
	SweepSpec = sweep.Spec
	// SweepStats aggregates a finished sweep (cache hits, throughput).
	SweepStats = sweep.Stats
	// SweepEvent is one job-lifecycle progress notification.
	SweepEvent = sweep.Event
	// SweepProgress observes sweep execution from worker goroutines.
	SweepProgress = sweep.Progress
)

// Sweep job kinds.
const (
	SweepSynthetic = sweep.Synthetic
	SweepPARSEC    = sweep.PARSEC
)

// SweepOptions configures RunSweep.
type SweepOptions struct {
	// Workers caps the pool; <= 0 means GOMAXPROCS.
	Workers int
	// CacheDir enables the on-disk result cache rooted there; "" runs
	// uncached. DefaultSweepCacheDir returns the conventional location.
	CacheDir string
	// Progress, when non-nil, receives per-job events (NewSweepReporter
	// for a terminal ticker). Must be safe for concurrent use.
	Progress SweepProgress
}

// DefaultSweepCacheDir returns the shared sweep cache location:
// $FLOV_SWEEP_CACHE if set, else <user-cache-dir>/flov-sweep.
func DefaultSweepCacheDir() (string, error) { return sweep.DefaultDir() }

// NewSweepReporter returns a terminal progress observer writing one line
// per finished job to w.
func NewSweepReporter(w io.Writer) SweepProgress { return sweep.NewReporter(w) }

// RunSweep executes the jobs across a worker pool and returns one result
// per job in job order, plus aggregate stats. Individual point failures
// (including panics inside the simulator) become error-carrying results;
// the error return covers setup problems only (an unusable cache dir).
// Cancelling ctx stops scheduling new points; points already running
// finish.
func RunSweep(ctx context.Context, jobs []SweepJob, o SweepOptions) ([]SweepResult, SweepStats, error) {
	e := &sweep.Engine{Workers: o.Workers, Progress: o.Progress}
	if o.CacheDir != "" {
		c, err := sweep.NewCache(o.CacheDir)
		if err != nil {
			return nil, SweepStats{}, err
		}
		e.Cache = c
	}
	start := time.Now()
	results := e.Run(ctx, jobs)
	return results, sweep.Summarize(results, time.Since(start)), nil
}

// SyntheticJob converts SyntheticOptions into a cacheable sweep job with
// the same semantics as RunSynthetic. Options carrying a Schedule are
// not representable as jobs (time-varying masks are not hashed); use
// Build for those.
func SyntheticJob(o SyntheticOptions) (SweepJob, error) {
	if o.Schedule != nil {
		return SweepJob{}, fmt.Errorf("flov: schedules are not supported in sweep jobs; use Build")
	}
	cfg := o.normalizedConfig()
	cfg.Mechanism = config.MechanismCode(o.Mechanism)
	return SweepJob{
		Kind:      SweepSynthetic,
		Config:    cfg,
		Pattern:   o.Pattern,
		Rate:      o.InjRate,
		Frac:      o.GatedFraction,
		Mechanism: o.Mechanism,
		MaskSeed:  sim.MaskSeed(o.GatedSeed), // Build's derivation: same point, same hash
		Protect:   o.Protect,
		Hotspots:  o.Hotspots,
		Faults:    o.Faults,
	}, nil
}

// PARSECJob converts a RunPARSEC invocation into a cacheable sweep job
// with identical semantics.
func PARSECJob(benchmark string, m Mechanism, seed uint64, maxCycles int64) (SweepJob, error) {
	prof, ok := trace.ProfileByName(benchmark)
	if !ok {
		return SweepJob{}, fmt.Errorf("flov: unknown benchmark %q", benchmark)
	}
	return profileJob(prof, m, seed, maxCycles), nil
}
