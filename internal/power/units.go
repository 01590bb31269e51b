package power

// Typed units of measure for the energy model. Go's named types reject
// arithmetic mixing two of them (Picojoules + Watts does not compile),
// so a raw float64 crossing a dimension needs an explicit conversion.
// The only legitimate crossings are EnergyPerCycle below, the
// raw-float reporting getters on Ledger, and the snapshot wire format,
// each with its reason in its doc comment.
//
// The wrappers are numerically transparent: Scale multiplies by a
// dimensionless count with the same single IEEE multiply as the
// untyped code used, and EnergyPerCycle keeps the exact operation
// order of the integration it replaced, so every accumulated figure is
// byte-identical to the pre-typed model (pinned by
// TestTypedUnitsPreserveNumerics).

// Picojoules is an amount of energy.
type Picojoules float64

// Watts is a power draw.
type Watts float64

// Hertz is a clock frequency.
type Hertz float64

// Scale multiplies an energy by a dimensionless event count.
func (p Picojoules) Scale(n float64) Picojoules { return p * Picojoules(n) }

// Scale multiplies a power draw by a dimensionless instance count.
func (w Watts) Scale(n float64) Watts { return w * Watts(n) }

// EnergyPerCycle integrates one clock cycle of this power draw:
// E[pJ] = P[W] * (1/hz)[s] * 1e12. It is the one W·s→pJ dimension
// crossing in the model.
func (w Watts) EnergyPerCycle(hz Hertz) Picojoules {
	return Picojoules(float64(w) / float64(hz) * 1e12)
}
