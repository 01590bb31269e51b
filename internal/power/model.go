// Package power implements the DSENT-substitute analytical power model:
// per-event dynamic energies and per-component leakage for a 32 nm,
// 2 GHz NoC with 16-byte (128-bit) flits and 50% switching activity.
//
// Absolute values are calibrated to published DSENT-class magnitudes; the
// evaluation cares about relative behaviour (static vs dynamic shares,
// FLOV latch vs full router pipeline, gated-residual leakage), which the
// model preserves. All energies are Picojoules, all powers Watts — typed
// units (units.go) that the compiler keeps apart.
package power

import "flov/internal/config"

// Per-event dynamic energies (pJ per flit or per event) at 32 nm for a
// 128-bit flit. Sources of magnitude: DSENT router/link models as used by
// the paper (50% switching activity).
const (
	EBufWritePJ  Picojoules = 1.30 // write one flit into an input VC buffer
	EBufReadPJ   Picojoules = 0.90 // read one flit out of an input VC buffer
	EXbarPJ      Picojoules = 1.90 // one flit through the 5x5 crossbar
	EArbPJ       Picojoules = 0.18 // one allocator decision (VA or SA grant)
	ELinkPJ      Picojoules = 2.00 // one flit across a 1 mm link
	ELatchPJ     Picojoules = 0.35 // one flit through a FLOV output latch (write+forward)
	ECreditPJ    Picojoules = 0.05 // one credit on the reverse wire
	EHandshakePJ Picojoules = 0.10 // one HSC handshake signal (FLOV) or FM message (RP)
)

// Leakage model (watts per instance) at 32 nm. Buffer leakage is charged
// per flit-slot so it scales with VC count and depth, matching how static
// power grows with buffering in DSENT.
const (
	PBufLeakPerSlotW Watts = 55e-6  // per flit buffer slot
	PXbarLeakW       Watts = 1.6e-3 // crossbar
	PAllocLeakW      Watts = 0.4e-3 // VA+SA allocators
	PMiscLeakW       Watts = 1.2e-3 // clock tree, pipeline registers, misc control
	PLinkLeakW       Watts = 0.4e-3 // one unidirectional 1 mm link (always on)

	// GatedResidualFrac is the fraction of router leakage that survives
	// power-gating (sleep-transistor and always-on wakeup logic).
	// Dimensionless, so deliberately not unit-typed.
	GatedResidualFrac = 0.07

	// PFLOVLatchLeakW is the leakage of the four FLOV output latches and
	// muxes/demuxes, consumed only while the router is power-gated with
	// FLOV links active.
	PFLOVLatchLeakW Watts = 0.15e-3

	// HSCOverheadFrac is the extra leakage FLOV adds to every (powered-on)
	// router for the HSC FSM, PSRs and modified CCL — the paper quantifies
	// the area at 3% of the router; we charge 1% of router leakage.
	// Dimensionless, so deliberately not unit-typed.
	HSCOverheadFrac = 0.01
)

// Model derives per-instance power figures from a configuration.
type Model struct {
	cfg config.Config
}

// NewModel returns a power model for the given configuration.
func NewModel(cfg config.Config) *Model { return &Model{cfg: cfg} }

// BufferSlots returns the number of flit buffer slots in one router.
func (m *Model) BufferSlots() int {
	return 5 * m.cfg.VCsTotal() * m.cfg.BufferDepth
}

// RouterStaticW returns the leakage of one powered-on baseline router.
func (m *Model) RouterStaticW() Watts {
	return PBufLeakPerSlotW.Scale(float64(m.BufferSlots())) + PXbarLeakW + PAllocLeakW + PMiscLeakW
}

// FLOVRouterStaticW returns the leakage of a powered-on FLOV router
// (baseline plus the HSC/PSR overhead).
func (m *Model) FLOVRouterStaticW() Watts {
	return m.RouterStaticW() * (1 + HSCOverheadFrac)
}

// GatedRouterStaticW returns the residual leakage of a power-gated router
// (without FLOV latches).
func (m *Model) GatedRouterStaticW() Watts {
	return m.RouterStaticW() * GatedResidualFrac
}

// GatedFLOVRouterStaticW returns the residual leakage of a power-gated
// FLOV router with its bypass latches active.
func (m *Model) GatedFLOVRouterStaticW() Watts {
	return m.GatedRouterStaticW() + PFLOVLatchLeakW
}

// LinkStaticW returns the leakage of one unidirectional link. Links stay
// powered in every mechanism (FLOV needs them for fly-over paths; link
// drivers are shared infrastructure).
func (m *Model) LinkStaticW() Watts { return PLinkLeakW }

// LinksInMesh returns the number of unidirectional inter-router links.
func (m *Model) LinksInMesh() int {
	w, h := m.cfg.Width, m.cfg.Height
	return 2 * (w*(h-1) + h*(w-1))
}

// GatingOverheadPJ returns the energy of one power-gating transition
// (either direction), from Table I.
func (m *Model) GatingOverheadPJ() Picojoules { return Picojoules(m.cfg.GatingOverheadPJ) }

// ClockHz returns the configured clock frequency.
func (m *Model) ClockHz() Hertz { return Hertz(m.cfg.ClockHz) }

// CyclesToSeconds converts a cycle count to seconds at the configured clock.
func (m *Model) CyclesToSeconds(cycles int64) float64 {
	return float64(cycles) / m.cfg.ClockHz
}
