// Package assert provides build-tag-gated runtime invariant checks for
// the simulator's hot paths. The constant On is true only when the
// build carries the `flovdebug` tag, so guarded blocks
//
//	if assert.On {
//		// expensive invariant walk
//	}
//
// are dead-code eliminated from ordinary builds and cost nothing there.
// CI exercises the checks with `go test -race -tags flovdebug ./...`.
package assert

import "fmt"

// Failf reports a violated invariant. Invariants guard simulator
// correctness (credit conservation, flit conservation, power-gating
// isolation); a violation is a bug in the simulator itself, so it
// panics rather than returning an error.
func Failf(format string, args ...any) {
	panic("invariant violated: " + fmt.Sprintf(format, args...))
}

// Digest folds a sequence of values into a comparable value, so a debug
// check can compare component state before and after a step without
// copying it. The i-th value is weighted by the odd number 2i+1, so
// changing any single folded value always changes the digest; the sum
// has no serial multiply chain, which keeps per-cycle checks cheap.
type Digest struct {
	sum, n uint64
}

// Add folds v into the digest.
func (d *Digest) Add(v int64) {
	d.sum += uint64(v) * (2*d.n + 1)
	d.n++
}

// AddBool folds b into the digest as 0 or 1.
func (d *Digest) AddBool(b bool) {
	if b {
		d.Add(1)
	} else {
		d.Add(0)
	}
}
