// Package sweep is the parallel sweep engine: every figure of the paper
// is a grid of independent simulation points, and this package fans those
// points out across a worker pool with content-addressed result caching
// and per-job observability.
//
// The pieces compose:
//
//   - Job fully describes one simulation point (config, pattern, rate,
//     gated fraction, mechanism, seeds) and hashes canonically;
//   - Engine runs a job list across GOMAXPROCS goroutines with context
//     cancellation, panic isolation and deterministic result ordering;
//   - Cache memoizes finished Results on disk keyed by the job hash, so
//     re-running a figure only simulates changed points;
//   - Progress observers receive start/finish/cache-hit events.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"flov/internal/config"
	"flov/internal/core"
	"flov/internal/fault"
	"flov/internal/network"
	"flov/internal/rp"
	"flov/internal/snapshot"
	"flov/internal/trace"
	"flov/internal/traffic"
)

// Kind selects the workload a Job describes.
type Kind int

// Job kinds.
const (
	// Synthetic is a BookSim-style open-loop run (RunSynthetic).
	Synthetic Kind = iota
	// PARSEC is a closed-loop full-system benchmark run (RunPARSEC).
	PARSEC
)

// String names the kind as used in job descriptions and JSON.
func (k Kind) String() string {
	switch k {
	case Synthetic:
		return "synthetic"
	case PARSEC:
		return "parsec"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// MarshalText spells the kind by name, as String does.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText is the inverse of MarshalText.
func (k *Kind) UnmarshalText(text []byte) error {
	switch string(text) {
	case "synthetic":
		*k = Synthetic
	case "parsec":
		*k = PARSEC
	default:
		return fmt.Errorf("sweep: unknown job kind %q", text)
	}
	return nil
}

// Job fully describes one simulation point. Two jobs with equal fields
// produce bit-identical Results (the simulator is deterministic), which
// is what makes the on-disk cache sound: the canonical Hash of a Job is
// the cache key.
//
// A Job encodes with plain encoding/json: the field tags name the wire
// keys, and the kind, pattern and mechanism marshal as the names the
// CLIs accept (their text methods), so specs and cached results stay
// readable and stable across enum renumbering. A missing or null kind,
// pattern or mechanism decodes as the zero value (Synthetic, Uniform,
// Baseline), like every other omitted field; an unknown name is an
// error.
//
// Schedules (time-varying gating masks) are intentionally not part of a
// Job — points that need one (Fig. 10, churn ablations) run outside the
// engine via flov.Build.
type Job struct {
	// Kind selects synthetic vs PARSEC; the zero value is Synthetic.
	Kind Kind `json:"kind"`

	// Config is the full testbed configuration for the point.
	Config config.Config `json:"config"`

	// Synthetic workload point. The pattern is written even when it is
	// Uniform, so it has no omitempty.
	Pattern  traffic.Pattern `json:"pattern"`
	Rate     float64         `json:"rate,omitempty"`       // offered load (flits/cycle/node)
	Frac     float64         `json:"gated_frac,omitempty"` // fraction of cores power-gated
	MaskSeed uint64          `json:"mask_seed,omitempty"`  // seed for the random gated-set draw
	Protect  []int           `json:"protect,omitempty"`    // node ids never gated
	Hotspots []int           `json:"hotspots,omitempty"`   // hotspot destinations (Hotspot pattern only)

	// Mechanism under test (both kinds).
	Mechanism config.Mechanism `json:"mechanism"`

	// Faults optionally attaches the fault-injection subsystem to a
	// synthetic run (reliability harness points). PARSEC jobs reject it
	// with an error row, on every run path.
	Faults *fault.Spec `json:"faults,omitempty"`

	// PARSEC workload point.
	Profile   trace.Profile `json:"profile"`              // benchmark profile (zero Name when synthetic)
	Seed      uint64        `json:"seed,omitempty"`       // driver seed for the closed-loop workload
	MaxCycles int64         `json:"max_cycles,omitempty"` // run bound for the closed-loop driver
}

// SchemaVersion is folded into every job hash; bump it whenever the
// simulator's observable behaviour changes in a way the Config does not
// capture, to invalidate stale cached results wholesale.
const SchemaVersion = "flov-sweep-v1"

// snapSchemaVersion folds the checkpoint state schema into job hashes:
// a schema bump comes with a change to the simulator's state, so it must
// miss every old cache entry. A variable (not the constant) so tests can
// simulate a bump.
var snapSchemaVersion = snapshot.SchemaVersion

// versionToken fills the module-version field of the hash preimage. It
// is fixed so binaries built at different commits share cache keys,
// and "(devel)" is what tests, `go run` and -buildvcs=false builds have
// always folded there, so their entries still hit. SchemaVersion is the
// knob that invalidates rows.
const versionToken = "(devel)"

// canonical is the job's canonical encoding, the preimage of Hash: its
// JSON form, which is deterministic (field order is fixed by the struct
// and floats render shortest-form).
func (j Job) canonical() []byte {
	enc, err := json.Marshal(j)
	if err != nil {
		// Job is plain data; Marshal cannot fail on it. Guard anyway so a
		// future field type mistake surfaces as distinct hashes, not
		// silent cache collisions.
		enc = []byte(fmt.Sprintf("unencodable:%#v", j))
	}
	return enc
}

// Hash returns the canonical content hash of the job: the hex SHA-256
// over the schema version, snapshot schema version, versionToken and
// the canonical encoding.
func (j Job) Hash() string {
	h := sha256.New()
	// hash.Hash.Write is documented to never return an error.
	_, _ = io.WriteString(h, SchemaVersion+"|"+snapSchemaVersion+"|"+versionToken+"|")
	_, _ = h.Write(j.canonical())
	return hex.EncodeToString(h.Sum(nil))
}

// Desc is a short human-readable point description for progress lines.
func (j Job) Desc() string {
	if j.Kind == PARSEC {
		return fmt.Sprintf("%s/%s seed=%d", j.Profile.Name, j.Mechanism, j.Seed)
	}
	return fmt.Sprintf("%s/%s rate=%.3f gated=%.0f%%",
		j.Pattern, j.Mechanism, j.Rate, j.Frac*100)
}

// Result is the outcome of one job: exactly one of Res (synthetic) or
// Out (PARSEC) is populated, unless Err is set. CacheHit and Wall
// describe this invocation, not the cached original, and are excluded
// from result-equality comparisons.
type Result struct {
	Job Job    `json:"job"`
	Err string `json:"err,omitempty"`

	// Res holds synthetic-run results (Kind == Synthetic).
	Res network.Results `json:"res"`
	// Out holds full-system outcomes (Kind == PARSEC).
	Out trace.Outcome `json:"out"`

	// CacheHit reports whether the result was served from the cache.
	CacheHit bool `json:"-"`
	// Wall is the wall-clock time this invocation spent on the job
	// (near zero for cache hits).
	Wall time.Duration `json:"-"`

	// Paused reports that a resumable run yielded to a preemption
	// request before finishing: Res/Out are unset and Snapshot holds the
	// checkpoint to resume from. Paused results are never cached.
	Paused bool `json:"-"`
	// Snapshot is the serialized mid-run checkpoint of a paused job.
	Snapshot []byte `json:"-"`
}

// SimCycles returns the number of simulated cycles the point covered,
// for throughput reporting.
func (r Result) SimCycles() int64 {
	if r.Job.Kind == PARSEC {
		return r.Out.RuntimeCyc
	}
	return r.Res.RunCycles
}

// NewMechanism instantiates the controller for a mechanism. This is the
// single factory shared by the public API, the experiments and the
// engine.
func NewMechanism(m config.Mechanism) (network.Mechanism, error) {
	switch m {
	case config.Baseline:
		return network.NewBaseline(), nil
	case config.RP:
		return rp.New(), nil
	case config.RFLOV:
		return core.NewRFLOV(), nil
	case config.GFLOV:
		return core.NewGFLOV(), nil
	}
	return nil, fmt.Errorf("sweep: unknown mechanism %v", m)
}

// Run executes the job cold and synchronously in the calling goroutine
// and returns its result. Errors (bad config, incomplete benchmark) are
// reported in Result.Err; Run never panics on invalid input, but the
// simulator itself may — the Engine isolates that.
func (j Job) Run() Result {
	start := time.Now()
	r := j.run(nil, nil)
	r.Wall = time.Since(start)
	return r
}
