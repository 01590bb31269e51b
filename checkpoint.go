package flov

import (
	"fmt"
	"io"

	"flov/internal/snapshot"
	"flov/internal/trace"
)

// Driver is the closed-loop (PARSEC-substitute) benchmark driver, for
// callers that need cycle-level control over full-system runs — in
// particular checkpointed execution via RunUntil.
type Driver = trace.Driver

// SnapshotSchemaVersion names the checkpoint state schema this build
// reads and writes. It participates in sweep cache keys, so a schema
// bump misses every row cached by an older build.
const SnapshotSchemaVersion = snapshot.SchemaVersion

// SaveSnapshot writes a deterministic checkpoint of a live simulation to
// w. Pass the driver for closed-loop runs, nil for synthetic ones.
func SaveSnapshot(w io.Writer, n *Network, d *Driver) error {
	return snapshot.Save(w, n, d)
}

// RestoreSnapshot applies a checkpoint to a freshly built simulation
// with the same configuration, mechanism and workload. On error the
// network must be rebuilt before use.
func RestoreSnapshot(r io.Reader, n *Network, d *Driver) error {
	return snapshot.Restore(r, n, d)
}

// SnapshotDiff compares two live simulations field by field and returns
// the first mismatch path, or "" when identical.
func SnapshotDiff(na, nb *Network, da, db *Driver) (string, error) {
	return snapshot.Diff(na, nb, da, db)
}

// BuildProfile assembles (but does not run) a closed-loop benchmark run,
// for callers that need checkpointed execution: advance with
// Driver.RunUntil, snapshot with SaveSnapshot, finish with
// Driver.Outcome.
func BuildProfile(prof Profile, m Mechanism, seed uint64) (*Network, *Driver, error) {
	return profileJob(prof, m, seed, 0).Build()
}

// BuildPARSEC is BuildProfile by benchmark name.
func BuildPARSEC(benchmark string, m Mechanism, seed uint64) (*Network, *Driver, error) {
	prof, ok := trace.ProfileByName(benchmark)
	if !ok {
		return nil, nil, fmt.Errorf("flov: unknown benchmark %q", benchmark)
	}
	return BuildProfile(prof, m, seed)
}
