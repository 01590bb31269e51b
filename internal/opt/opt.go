// Package opt is the automated design-space explorer: a deterministic
// multi-objective optimizer that searches the FLOV testbed parameter
// space (mesh size, VC/buffer counts, gating mechanism, wakeup latency,
// gated fraction, injection rate/pattern) for Pareto-optimal
// configurations under configurable objectives (energy per flit, mean
// and p99 packet latency, accepted throughput).
//
// The pieces compose:
//
//   - Space enumerates the candidate values per dimension and decodes a
//     genome (one index per dimension) into a sweep.Job;
//   - Objective scores a finished point; all objectives minimize, with
//     throughput negated so "higher is better" still minimizes;
//   - Archive keeps the non-dominated set with dominance pruning;
//   - Strategy is the pluggable search loop (NSGA-II, simulated
//     annealing, random baseline), fed by seeded sim.RNG streams only;
//   - Run drives generations through sweep.Engine, so every candidate
//     is a content-addressed Job that hits the on-disk cache and
//     warm-start forking for free.
//
// Everything is a pure function of the Spec: the same spec and seed
// produce byte-identical fronts across processes, which is what makes
// resuming an interrupted run (re-running it against the same result
// cache) sound.
package opt

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"flov/internal/config"
	"flov/internal/network"
	"flov/internal/sim"
	"flov/internal/sweep"
	"flov/internal/traffic"
)

// Objective is one axis of the multi-objective score. Every objective
// is minimized; see value for the exact definition.
type Objective int

// The supported objectives.
const (
	// EnergyPerFlit is total energy over the measurement window divided
	// by delivered flits (pJ/flit).
	EnergyPerFlit Objective = iota
	// MeanLatency is the average packet latency in cycles.
	MeanLatency
	// P99Latency is the 99th-percentile packet latency upper bound.
	P99Latency
	// Throughput is the negated accepted throughput (flits/cycle/node):
	// minimizing the negation maximizes throughput.
	Throughput
)

// Objectives lists all objectives in canonical order.
func Objectives() []Objective {
	return []Objective{EnergyPerFlit, MeanLatency, P99Latency, Throughput}
}

// String names the objective as used in specs, CSV headers and JSON.
func (o Objective) String() string {
	switch o {
	case EnergyPerFlit:
		return "energy_per_flit"
	case MeanLatency:
		return "mean_latency"
	case P99Latency:
		return "p99_latency"
	case Throughput:
		return "throughput"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// ParseObjective converts a case-insensitive name to an Objective.
func ParseObjective(s string) (Objective, error) {
	switch strings.ToLower(s) {
	case "energy_per_flit", "energy":
		return EnergyPerFlit, nil
	case "mean_latency", "latency":
		return MeanLatency, nil
	case "p99_latency", "p99":
		return P99Latency, nil
	case "throughput", "tput":
		return Throughput, nil
	}
	return EnergyPerFlit, fmt.Errorf("opt: unknown objective %q", s)
}

// MarshalJSON renders the symbolic name.
func (o Objective) MarshalJSON() ([]byte, error) { return json.Marshal(o.String()) }

// UnmarshalJSON parses the symbolic name.
func (o *Objective) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	v, err := ParseObjective(s)
	if err != nil {
		return err
	}
	*o = v
	return nil
}

// infeasible is the score assigned to every objective of a candidate
// whose simulation failed; it dominates nothing and is dominated by any
// real point, so failures fall out of the archive naturally. It is a
// finite value (not +Inf) so score rows stay JSON-encodable.
const infeasible = 1e300

// value scores a finished point on this objective. j supplies the
// workload parameters Results alone do not carry (packet size).
func (o Objective) value(j sweep.Job, res network.Results) float64 {
	switch o {
	case EnergyPerFlit:
		flits := float64(res.Packets) * float64(j.Config.PacketSize)
		if flits < 1 {
			return infeasible
		}
		return res.TotalEnergyPJ / flits
	case MeanLatency:
		return res.AvgLatency
	case P99Latency:
		return float64(res.P99Latency)
	case Throughput:
		return -res.ThroughputFpc
	default:
		return infeasible
	}
}

// parseObjectives resolves the spec's objective names, rejecting
// duplicates (a repeated axis would double-count in dominance).
func parseObjectives(names []string) ([]Objective, error) {
	if len(names) < 2 {
		return nil, fmt.Errorf("opt: need at least two objectives for a Pareto front, got %d", len(names))
	}
	objs := make([]Objective, 0, len(names))
	for _, name := range names {
		o, err := ParseObjective(name)
		if err != nil {
			return nil, err
		}
		for _, prev := range objs {
			if prev == o {
				return nil, fmt.Errorf("opt: duplicate objective %q", o)
			}
		}
		objs = append(objs, o)
	}
	return objs, nil
}

// Space lists the candidate values per design dimension. Empty lists
// take the defaults documented on each field. The genome dimension
// order is fixed: width, height, VCs, buffers, mechanism, wakeup
// latency, gated fraction, rate, pattern.
type Space struct {
	// Widths and Heights are the mesh dimensions (default {8} each).
	Widths  []int `json:"widths,omitempty"`
	Heights []int `json:"heights,omitempty"`
	// VCs is regular VCs per vnet (default {3}).
	VCs []int `json:"vcs,omitempty"`
	// Buffers is flits per VC input buffer (default {6}); every value
	// must fit a whole packet so all candidates validate.
	Buffers []int `json:"buffers,omitempty"`
	// Mechanisms are the gating policies under search (default all
	// four; "all" expands likewise).
	Mechanisms []string `json:"mechanisms,omitempty"`
	// Wakeups is the wakeup latency in cycles (default {10}).
	Wakeups []int `json:"wakeup_latencies,omitempty"`
	// GatedFracs selects the random gated-router mask density
	// (default {0, 0.25, 0.5}).
	GatedFracs []float64 `json:"gated_fractions,omitempty"`
	// Rates is offered load in flits/cycle/node (default {0.02, 0.06}).
	Rates []float64 `json:"rates,omitempty"`
	// Patterns are synthetic traffic patterns (default {"uniform"}).
	Patterns []string `json:"patterns,omitempty"`
}

// space is the resolved, validated form of Space.
type space struct {
	widths, heights, vcs, buffers, wakeups []int
	mechs                                  []config.Mechanism
	fracs, rates                           []float64
	patterns                               []traffic.Pattern
}

// dims is the genome length: one gene per design dimension.
const dims = 9

// resolve validates the space and fills defaults, guaranteeing that
// every decodable genome yields a config.Validate-clean job.
func (s Space) resolve() (space, error) {
	sp := space{
		widths:  defaultInts(s.Widths, 8),
		heights: defaultInts(s.Heights, 8),
		vcs:     defaultInts(s.VCs, 3),
		buffers: defaultInts(s.Buffers, 6),
		wakeups: defaultInts(s.Wakeups, 10),
		fracs:   s.GatedFracs,
		rates:   s.Rates,
	}
	if len(sp.fracs) == 0 {
		sp.fracs = []float64{0, 0.25, 0.5}
	}
	if len(sp.rates) == 0 {
		sp.rates = []float64{0.02, 0.06}
	}
	for _, w := range sp.widths {
		if w < 2 {
			return space{}, fmt.Errorf("opt: mesh width must be >= 2, got %d", w)
		}
	}
	for _, h := range sp.heights {
		if h < 2 {
			return space{}, fmt.Errorf("opt: mesh height must be >= 2, got %d", h)
		}
	}
	for _, v := range sp.vcs {
		if v < 1 {
			return space{}, fmt.Errorf("opt: need at least one VC per vnet, got %d", v)
		}
	}
	minBuf := config.Default().PacketSize
	for _, b := range sp.buffers {
		if b < minBuf {
			return space{}, fmt.Errorf("opt: buffer depth %d cannot hold a %d-flit packet", b, minBuf)
		}
	}
	for _, w := range sp.wakeups {
		if w < 0 {
			return space{}, fmt.Errorf("opt: wakeup latency must be >= 0, got %d", w)
		}
	}
	for _, f := range sp.fracs {
		if f < 0 || f > 1 {
			return space{}, fmt.Errorf("opt: gated fraction must be in [0,1], got %g", f)
		}
	}
	for _, r := range sp.rates {
		if r <= 0 {
			return space{}, fmt.Errorf("opt: injection rate must be positive, got %g", r)
		}
	}

	mechNames := s.Mechanisms
	if len(mechNames) == 0 || (len(mechNames) == 1 && mechNames[0] == "all") {
		sp.mechs = config.Mechanisms()
	} else {
		for _, name := range mechNames {
			m, err := config.ParseMechanism(name)
			if err != nil {
				return space{}, err
			}
			sp.mechs = append(sp.mechs, m)
		}
	}
	patNames := s.Patterns
	if len(patNames) == 0 {
		patNames = []string{"uniform"}
	}
	for _, name := range patNames {
		p, err := traffic.ParsePattern(name)
		if err != nil {
			return space{}, err
		}
		sp.patterns = append(sp.patterns, p)
	}
	return sp, nil
}

// defaultInts substitutes a single-value default for an empty list.
func defaultInts(vs []int, def int) []int {
	if len(vs) == 0 {
		return []int{def}
	}
	return vs
}

// sizes returns the per-dimension cardinalities in genome order.
func (sp space) sizes() []int {
	return []int{
		len(sp.widths), len(sp.heights), len(sp.vcs), len(sp.buffers),
		len(sp.mechs), len(sp.wakeups), len(sp.fracs), len(sp.rates),
		len(sp.patterns),
	}
}

// points is the full grid size (for reporting; the optimizer never
// enumerates it).
func (sp space) points() int {
	n := 1
	for _, s := range sp.sizes() {
		n *= s
	}
	return n
}

// job decodes a genome into the sweep.Job it identifies. The mapping is
// pure, so a genome's job hash is its cache identity.
func (sp space) job(spec Spec, g []int) sweep.Job {
	cfg := config.Default()
	cfg.Width = sp.widths[g[0]]
	cfg.Height = sp.heights[g[1]]
	cfg.VCsPerVNet = sp.vcs[g[2]]
	cfg.BufferDepth = sp.buffers[g[3]]
	cfg.Mechanism = sp.mechs[g[4]]
	cfg.WakeupLatency = sp.wakeups[g[5]]
	if spec.Cycles > 0 {
		cfg.TotalCycles = spec.Cycles
	}
	if spec.Warmup > 0 {
		cfg.WarmupCycles = spec.Warmup
	}
	cfg.Seed = spec.Seed
	return sweep.Job{
		Kind:      sweep.Synthetic,
		Config:    cfg,
		Pattern:   sp.patterns[g[8]],
		Rate:      sp.rates[g[7]],
		Frac:      sp.fracs[g[6]],
		Mechanism: cfg.Mechanism,
		// Same derivation as flov.Build and sweep.Spec, so an optimizer
		// candidate shares its cache identity with the equivalent
		// flovsim/flovsweep point.
		MaskSeed: sim.MaskSeed(cfg.Seed),
	}
}

// Spec is the declarative optimizer input: the search space, the
// objectives, the strategy and its budget. Zero fields take defaults
// (filled by withDefaults), so a minimal spec is just a Space.
type Spec struct {
	Space Space `json:"space"`
	// Objectives names at least two score axes (default energy_per_flit
	// and mean_latency).
	Objectives []string `json:"objectives,omitempty"`
	// Strategy selects the search loop: nsga2 (default), anneal, random.
	Strategy string `json:"strategy,omitempty"`
	// Generations is the number of ask/evaluate/tell rounds (default 8).
	Generations int `json:"generations,omitempty"`
	// Population is candidates per generation (default 16).
	Population int `json:"population,omitempty"`
	// Seed drives every random draw: the strategy streams, the
	// simulator and the gated-mask draw (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Cycles/Warmup override the Table I simulation length per
	// candidate (0 = default).
	Cycles int64 `json:"cycles,omitempty"`
	Warmup int64 `json:"warmup,omitempty"`
}

// withDefaults fills unset knobs.
func (s Spec) withDefaults() Spec {
	if len(s.Objectives) == 0 {
		s.Objectives = []string{EnergyPerFlit.String(), MeanLatency.String()}
	}
	if s.Strategy == "" {
		s.Strategy = "nsga2"
	}
	if s.Generations <= 0 {
		s.Generations = 8
	}
	if s.Population <= 0 {
		s.Population = 16
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// LoadSpec reads a JSON spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	return ParseSpec(data)
}

// ParseSpec decodes a JSON spec document, rejecting unknown fields so
// a typoed knob fails loudly instead of silently taking its default.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("opt: parse spec: %w", err)
	}
	return s, nil
}
