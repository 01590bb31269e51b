package relcheck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"flov/internal/snapshot"
	"flov/internal/sweep"
)

// Artifact is the replay bundle written for one VIOLATED cell: the exact
// failing job, the per-trial fault spec as a flovsim -faults file, the
// last checkpoint taken before the oracle tripped, and a ready-to-paste
// flovsim command that reproduces the failure.
type Artifact struct {
	Cell      int       `json:"cell"` // index into Report.Cells
	Mechanism string    `json:"mechanism"`
	Seed      uint64    `json:"seed"`
	Job       sweep.Job `json:"job"` // ground truth for the trial
	Err       string    `json:"err"` // oracle message from the replay
	// Cycle is when the last good checkpoint was taken (0 when the
	// failure predates the first checkpoint; replay then starts cold).
	Cycle     int64  `json:"checkpoint_cycle"`
	Snapshot  string `json:"snapshot,omitempty"` // checkpoint file
	FaultSpec string `json:"fault_spec"`         // flovsim -faults file
	Command   string `json:"command"`            // suggested replay invocation
}

// WriteArtifacts replays the first failing trial of every VIOLATED cell
// in rep (which must come from a Run of the same spec) and writes its
// replay bundle under dir: <prefix>.snap, <prefix>.faults.json and
// <prefix>.replay.json. It returns one Artifact per violated cell.
func WriteArtifacts(dir string, s Spec, rep Report) ([]Artifact, error) {
	jobs := s.Jobs()
	var arts []Artifact
	for ci, c := range rep.Cells {
		if c.Verdict != Violated {
			continue
		}
		ti := -1
		for t, tr := range c.Trials {
			if tr.Err != "" {
				ti = t
				break
			}
		}
		if ti < 0 {
			continue
		}
		idx := ci*s.Trials + ti
		if idx >= len(jobs) {
			return arts, fmt.Errorf("relcheck: report shape does not match spec (cell %d trial %d)", ci, ti)
		}
		if len(arts) == 0 {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
		}
		a, err := writeArtifact(dir, ci, c, jobs[idx], s)
		if err != nil {
			return arts, err
		}
		arts = append(arts, a)
	}
	return arts, nil
}

// writeArtifact replays one failing job and persists its bundle.
func writeArtifact(dir string, ci int, c Cell, j sweep.Job, s Spec) (Artifact, error) {
	seed := j.Config.Seed
	prefix := fmt.Sprintf("cell%02d-%s-f%d-seed%d", ci, c.Mechanism, c.FaultIndex, seed)
	a := Artifact{
		Cell:      ci,
		Mechanism: c.Mechanism,
		Seed:      seed,
		Job:       j,
	}

	snap, cycle, msg := replayTrial(j)
	a.Cycle = cycle
	if msg == "" {
		// The replay did not reproduce (e.g. the verdict came from a
		// cached row of an older build); the bundle still carries the job
		// and fault spec so the trial can be re-run by hand.
		msg = "replay completed without tripping the oracle; original error: " + c.Err
	}
	a.Err = msg

	faultsPath := filepath.Join(dir, prefix+".faults.json")
	fj, err := json.MarshalIndent(j.Faults, "", " ")
	if err != nil {
		return a, err
	}
	if err := os.WriteFile(faultsPath, append(fj, '\n'), 0o644); err != nil {
		return a, err
	}
	a.FaultSpec = faultsPath

	if snap != nil {
		snapPath := filepath.Join(dir, prefix+".snap")
		if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
			return a, err
		}
		a.Snapshot = snapPath
	}

	cmd := fmt.Sprintf("flovsim -mech %s -pattern %s -rate %g -gated %g -width %d -height %d -seed %d -warmup 0 -cycles %d -faults %s",
		c.Mechanism, j.Pattern, j.Rate, j.Frac,
		j.Config.Width, j.Config.Height, seed, j.Config.TotalCycles, faultsPath)
	if a.Snapshot != "" {
		cmd += " -restore " + a.Snapshot
	}
	a.Command = cmd

	rj, err := json.MarshalIndent(a, "", " ")
	if err != nil {
		return a, err
	}
	if err := os.WriteFile(filepath.Join(dir, prefix+".replay.json"), append(rj, '\n'), 0o644); err != nil {
		return a, err
	}
	return a, nil
}

// replayTrial re-runs one trial with periodic in-memory checkpoints,
// converting an oracle panic into the returned message. The returned
// snapshot is the last checkpoint taken before the failure (nil when it
// tripped before the first checkpoint); cycle is when it was taken.
func replayTrial(j sweep.Job) (snap []byte, cycle int64, msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	n, _, err := j.Build()
	if err != nil {
		return nil, 0, err.Error()
	}
	every := j.Config.TotalCycles / 16
	if every < 512 {
		every = 512
	}
	for n.Now() < j.Config.TotalCycles {
		next := n.Now() + every
		if next > j.Config.TotalCycles {
			next = j.Config.TotalCycles
		}
		n.RunTo(next)
		var buf bytes.Buffer
		if err := snapshot.Save(&buf, n, nil); err == nil {
			snap, cycle = buf.Bytes(), n.Now()
		}
	}
	// Measurement finished without tripping; the drain phase runs under
	// the same oracles (a deadlock there is still a violation).
	n.Run()
	return snap, cycle, ""
}
