package sweep

import (
	"bytes"
	"fmt"

	"flov/internal/config"
	"flov/internal/gating"
	"flov/internal/network"
	"flov/internal/sim"
	"flov/internal/snapshot"
	"flov/internal/topology"
	"flov/internal/trace"
	"flov/internal/traffic"
)

// resumeQuantum is the granularity of preemption checks: runs advance
// this many cycles between Pause polls. A run always makes progress
// before its first poll, so even a Pause that is permanently true cannot
// livelock a sweep — every requeue cycle moves each job forward.
const resumeQuantum = 4096

// DefaultMaxCycles bounds a PARSEC job that leaves MaxCycles unset.
const DefaultMaxCycles = 20_000_000

// IncompleteError is the error of a PARSEC run of benchmark under mech
// that reached its cycle bound before the benchmark finished.
func IncompleteError(benchmark string, mech config.Mechanism, bound int64) error {
	return fmt.Errorf("sweep: benchmark %s/%v did not complete within %d cycles", benchmark, mech, bound)
}

// Build assembles (but does not run) the job's simulation: the network
// and, for a PARSEC job, the closed-loop driver over it (nil for a
// synthetic job). Every run path, the facade's PARSEC entry points and
// the reliability harness's replay build through it, so they all
// simulate the identical system.
func (j Job) Build() (*network.Network, *trace.Driver, error) {
	switch j.Kind {
	case Synthetic:
		mesh, err := topology.NewMesh(j.Config.Width, j.Config.Height)
		if err != nil {
			return nil, nil, err
		}
		mask := gating.FractionGated(mesh, j.Frac, j.Protect, sim.NewRNG(j.MaskSeed))
		gen := traffic.NewGenerator(j.Pattern, mesh, j.Hotspots)
		mech, err := NewMechanism(j.Mechanism)
		if err != nil {
			return nil, nil, err
		}
		n, err := network.New(j.Config, mech, gating.Static(mask), gen, j.Rate)
		if err != nil {
			return nil, nil, err
		}
		if j.Faults != nil {
			if err := n.AttachFaults(*j.Faults); err != nil {
				return nil, nil, err
			}
		}
		return n, nil, nil
	case PARSEC:
		if j.Faults != nil {
			return nil, nil, fmt.Errorf("sweep: fault injection is only supported for synthetic jobs")
		}
		mech, err := NewMechanism(j.Mechanism)
		if err != nil {
			return nil, nil, err
		}
		n, err := network.New(j.Config, mech, nil, nil, 0)
		if err != nil {
			return nil, nil, err
		}
		return n, trace.NewDriver(n, j.Profile, j.Seed), nil
	}
	return nil, nil, fmt.Errorf("sweep: unknown job kind %v", j.Kind)
}

// run is the one point runner behind Job.Run and the Engine. It builds
// the job and picks its starting state: the mid-run checkpoint snap of
// this very job when non-nil (strict restore), else cycle 0.
//
// The run advances in resumeQuantum slices, polling pause between them
// (nil never preempts); when it reports true the live state is
// checkpointed and returned in a Paused result, and re-running the job
// with that snapshot continues exactly where it left off. Otherwise a
// synthetic run drains and collects its results, a PARSEC run its
// outcome. Every path produces rows byte-identical to an uninterrupted
// run.
func (j Job) run(snap []byte, pause func() bool) Result {
	r := Result{Job: j}
	n, d, err := j.Build()
	if err != nil {
		r.Err = err.Error()
		return r
	}
	end := j.Config.TotalCycles
	if d != nil {
		if end = j.MaxCycles; end <= 0 {
			end = DefaultMaxCycles
		}
	}
	if snap != nil {
		if err := snapshot.Restore(bytes.NewReader(snap), n, d); err != nil {
			r.Err = fmt.Sprintf("sweep: resuming from checkpoint: %v", err)
			return r
		}
	}

	finished := func() bool { return n.Now() >= end || (d != nil && d.Finished()) }
	for !finished() {
		next := min(n.Now()+resumeQuantum, end)
		if d != nil {
			d.RunUntil(next)
		} else {
			n.RunTo(next)
		}
		if finished() {
			break
		}
		if pause != nil && pause() {
			blob, err := save(n, d)
			if err != nil {
				r.Err = fmt.Sprintf("sweep: checkpointing for preemption: %v", err)
				return r
			}
			r.Paused, r.Snapshot = true, blob
			return r
		}
	}

	if d == nil {
		// The drain phase is short and bounded; it runs to completion
		// even under a pending preemption request.
		r.Res = n.Run()
		return r
	}
	r.Out = d.Outcome()
	if !r.Out.Completed {
		r.Err = IncompleteError(j.Profile.Name, j.Mechanism, end).Error()
	}
	return r
}

// save serializes a live simulation into a checkpoint.
func save(n *network.Network, d *trace.Driver) ([]byte, error) {
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, n, d); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
