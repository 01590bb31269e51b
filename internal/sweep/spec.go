package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"flov/internal/config"
	"flov/internal/fault"
	"flov/internal/sim"
	"flov/internal/trace"
	"flov/internal/traffic"
)

// Spec is a declarative sweep description: the cross product of its
// lists, in deterministic pattern × rate × fraction × mechanism order
// (benchmark × mechanism for PARSEC specs). It is the JSON schema
// cmd/flovsweep accepts and what the CLI flags are folded into.
type Spec struct {
	// Synthetic grid. Ignored when Benchmarks is non-empty.
	Patterns   []string  `json:"patterns,omitempty"`
	Rates      []float64 `json:"rates,omitempty"`
	GatedFracs []float64 `json:"gated_fractions,omitempty"`

	// Mechanisms under test; empty means all four.
	Mechanisms []string `json:"mechanisms,omitempty"`

	// Benchmarks switches the spec to the PARSEC closed-loop workloads;
	// the single entry "all" expands to every profile.
	Benchmarks []string `json:"benchmarks,omitempty"`

	// Testbed overrides (zero values take Table I defaults).
	Width  int   `json:"width,omitempty"`
	Height int   `json:"height,omitempty"`
	Cycles int64 `json:"cycles,omitempty"`
	Warmup int64 `json:"warmup,omitempty"`

	// Seed drives both the simulator RNG and the gated-set draw, exactly
	// like flovsim's -seed, so a sweep point and the equivalent single
	// run share one cache identity.
	Seed uint64 `json:"seed,omitempty"`

	// Faults optionally attaches one fault-injection scenario to every
	// synthetic point (fault-scenario jobs submitted through flovd);
	// PARSEC specs reject it.
	Faults *fault.Spec `json:"faults,omitempty"`

	// MaxCycles bounds PARSEC runs (0 = default bound).
	MaxCycles int64 `json:"max_cycles,omitempty"`
}

// LoadSpec reads a JSON spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("sweep: parse spec %s: %w", path, err)
	}
	return s, nil
}

// MaxSpecBytes bounds a spec body read from the network; real specs are
// a few hundred bytes, so 1 MiB is generous and still DoS-safe.
const MaxSpecBytes = 1 << 20

// ReadSpecBody reads a submitted spec body of at most MaxSpecBytes.
func ReadSpecBody(r io.Reader) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, MaxSpecBytes+1))
	if err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	if len(data) > MaxSpecBytes {
		return nil, fmt.Errorf("spec larger than %d bytes", MaxSpecBytes)
	}
	return data, nil
}

// ReadJobs reads a submitted JSON spec (bounded by MaxSpecBytes) and
// expands it into its point list; a spec that expands to nothing is an
// error. Both serving planes admit sweeps through it.
func ReadJobs(r io.Reader) ([]Job, error) {
	data, err := ReadSpecBody(r)
	if err != nil {
		return nil, err
	}
	var spec Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("parse spec: %w", err)
	}
	points, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, errors.New("spec expands to zero jobs")
	}
	return points, nil
}

// PointsHash is the identity of a point list: the hash of its expanded
// point hashes, so two spellings of the same grid coincide. The
// single-node daemon's dedup key and cluster job ids both derive from
// it.
func PointsHash(points []Job) string {
	h := sha256.New()
	for _, p := range points {
		// hash.Hash.Write never returns an error.
		_, _ = fmt.Fprintf(h, "%s\n", p.Hash())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Jobs expands the spec into its job list.
func (s Spec) Jobs() ([]Job, error) {
	mechs, err := s.mechanisms()
	if err != nil {
		return nil, err
	}
	if len(s.Benchmarks) > 0 {
		if s.Faults != nil {
			return nil, fmt.Errorf("sweep: fault injection is only supported for synthetic specs")
		}
		return s.parsecJobs(mechs)
	}
	return s.syntheticJobs(mechs)
}

func (s Spec) mechanisms() ([]config.Mechanism, error) {
	if len(s.Mechanisms) == 0 || (len(s.Mechanisms) == 1 && s.Mechanisms[0] == "all") {
		return config.Mechanisms(), nil
	}
	var mechs []config.Mechanism
	for _, name := range s.Mechanisms {
		m, err := config.ParseMechanism(name)
		if err != nil {
			return nil, err
		}
		mechs = append(mechs, m)
	}
	return mechs, nil
}

// baseConfig applies the spec's testbed overrides to a Table I config.
func (s Spec) baseConfig(cfg config.Config) config.Config {
	if s.Width > 0 {
		cfg.Width = s.Width
	}
	if s.Height > 0 {
		cfg.Height = s.Height
	}
	if s.Cycles > 0 {
		cfg.TotalCycles = s.Cycles
	}
	if s.Warmup > 0 {
		cfg.WarmupCycles = s.Warmup
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	return cfg
}

func (s Spec) syntheticJobs(mechs []config.Mechanism) ([]Job, error) {
	patterns := s.Patterns
	if len(patterns) == 0 {
		patterns = []string{"uniform"}
	}
	rates := s.Rates
	if len(rates) == 0 {
		rates = []float64{0.02}
	}
	fracs := s.GatedFracs
	if len(fracs) == 0 {
		fracs = []float64{0.5}
	}
	var jobs []Job
	for _, pname := range patterns {
		pat, err := traffic.ParsePattern(pname)
		if err != nil {
			return nil, err
		}
		for _, rate := range rates {
			for _, frac := range fracs {
				for _, m := range mechs {
					cfg := s.baseConfig(config.Default())
					cfg.Mechanism = m
					jobs = append(jobs, Job{
						Kind:      Synthetic,
						Config:    cfg,
						Pattern:   pat,
						Rate:      rate,
						Frac:      frac,
						Mechanism: m,
						// Same derivation as flov.Build, so flovsim and
						// flovsweep agree on a point's identity.
						MaskSeed: sim.MaskSeed(cfg.Seed),
						Faults:   s.Faults,
					})
				}
			}
		}
	}
	return jobs, nil
}

func (s Spec) parsecJobs(mechs []config.Mechanism) ([]Job, error) {
	benches := s.Benchmarks
	if len(benches) == 1 && benches[0] == "all" {
		benches = nil
		for _, p := range trace.Profiles() {
			benches = append(benches, p.Name)
		}
	}
	var jobs []Job
	for _, name := range benches {
		prof, ok := trace.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("sweep: unknown benchmark %q", name)
		}
		for _, m := range mechs {
			cfg := s.baseConfig(config.FullSystem())
			cfg.WarmupCycles = 0
			cfg.TotalCycles = 1 << 40
			cfg.Mechanism = m
			jobs = append(jobs, Job{
				Kind:      PARSEC,
				Config:    cfg,
				Mechanism: m,
				Profile:   prof,
				Seed:      cfg.Seed,
				MaxCycles: s.MaxCycles,
			})
		}
	}
	return jobs, nil
}
