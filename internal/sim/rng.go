// Package sim provides the simulation primitives used by the FLOV
// network-on-chip simulator: a deterministic random number generator and
// delay queues that give register-transfer (two-phase) semantics between
// components. The cycle loop itself is network.Network.Step.
//
// Everything in this package is deterministic: two runs with the same seed
// produce bit-identical results, which the test suite relies on.
package sim

// RNG is a deterministic pseudo-random number generator based on
// SplitMix64. It is small, fast, allocation-free and good enough for
// workload generation; it is NOT cryptographically secure.
//
// The zero value is a valid generator seeded with 0; use NewRNG to seed.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Distinct seeds give
// independent-looking streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection-free approximation is fine here;
	// the slight modulo bias for huge n is irrelevant for workload draws.
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n) using Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Fork returns a new RNG whose stream is decorrelated from r's, derived
// from r's current state and the given label. Useful to give each traffic
// source its own stream while keeping global determinism.
func (r *RNG) Fork(label uint64) *RNG {
	return NewRNG(r.Uint64() ^ (label * 0xd1342543de82ef95))
}

// State returns the generator's internal state. Together with SetState it
// lets a checkpoint capture and later resume the exact stream position.
func (r *RNG) State() uint64 { return r.state }

// SetState overwrites the generator's internal state (checkpoint restore).
func (r *RNG) SetState(s uint64) { r.state = s }
