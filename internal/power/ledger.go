package power

// DynCategory classifies dynamic energy events for reporting.
type DynCategory int

// Dynamic energy categories tracked by the ledger.
const (
	CatBuffer DynCategory = iota
	CatCrossbar
	CatArbitration
	CatLink
	CatFLOVLatch
	CatCredit
	CatHandshake
	CatGating // power-gating transition overhead (17.7 pJ each)
	NumCategories
)

// String names the category.
func (c DynCategory) String() string {
	switch c {
	case CatBuffer:
		return "buffer"
	case CatCrossbar:
		return "crossbar"
	case CatArbitration:
		return "arbitration"
	case CatLink:
		return "link"
	case CatFLOVLatch:
		return "flov-latch"
	case CatCredit:
		return "credit"
	case CatHandshake:
		return "handshake"
	case CatGating:
		return "gating-overhead"
	default:
		return "unknown"
	}
}

// Ledger accumulates dynamic and static energy over a measurement window.
// Routers and NIs report events into it; the network integrates static
// power once per cycle. A Ledger is not safe for concurrent use (each
// simulated network owns one).
type Ledger struct {
	model *Model //flovsnap:skip immutable power model derived from config

	dynPJ    [NumCategories]Picojoules
	staticPJ Picojoules
	cycles   int64
	enabled  bool
}

// NewLedger returns an empty ledger bound to a power model. Ledgers start
// disabled so the warmup phase is not billed; call SetEnabled(true) when
// the measurement window opens.
func NewLedger(m *Model) *Ledger { return &Ledger{model: m} }

// Model returns the underlying power model.
func (l *Ledger) Model() *Model { return l.model }

// SetEnabled switches energy accounting on or off (off during warmup).
func (l *Ledger) SetEnabled(on bool) { l.enabled = on }

// Enabled reports whether events are currently billed.
func (l *Ledger) Enabled() bool { return l.enabled }

// AddDyn charges n events of category c.
func (l *Ledger) AddDyn(c DynCategory, n int) {
	if !l.enabled || n == 0 {
		return
	}
	var per Picojoules
	switch c {
	case CatBuffer:
		per = 0 // use AddBufferWrite/Read instead
	case CatCrossbar:
		per = EXbarPJ
	case CatArbitration:
		per = EArbPJ
	case CatLink:
		per = ELinkPJ
	case CatFLOVLatch:
		per = ELatchPJ
	case CatCredit:
		per = ECreditPJ
	case CatHandshake:
		per = EHandshakePJ
	case CatGating:
		per = l.model.GatingOverheadPJ()
	}
	l.dynPJ[c] += per.Scale(float64(n))
}

// Buffer events have distinct write/read energies, so they get dedicated
// methods that both bill CatBuffer.

// AddBufferWrite charges n buffer-write events.
func (l *Ledger) AddBufferWrite(n int) {
	if l.enabled {
		l.dynPJ[CatBuffer] += EBufWritePJ.Scale(float64(n))
	}
}

// AddBufferRead charges n buffer-read events.
func (l *Ledger) AddBufferRead(n int) {
	if l.enabled {
		l.dynPJ[CatBuffer] += EBufReadPJ.Scale(float64(n))
	}
}

// TickStatic integrates one cycle of leakage given the current count of
// routers in each power condition. flovCapable selects the per-router
// leakage (with or without HSC overhead and latch residuals).
func (l *Ledger) TickStatic(onRouters, gatedRouters int, flovCapable bool) {
	if !l.enabled {
		return
	}
	m := l.model
	var onW, gatedW Watts
	if flovCapable {
		onW = m.FLOVRouterStaticW()
		gatedW = m.GatedFLOVRouterStaticW()
	} else {
		onW = m.RouterStaticW()
		gatedW = m.GatedRouterStaticW()
	}
	linkW := m.LinkStaticW().Scale(float64(m.LinksInMesh()))
	totalW := onW.Scale(float64(onRouters)) + gatedW.Scale(float64(gatedRouters)) + linkW
	// One cycle at ClockHz: E[pJ] = P[W] * (1/ClockHz)[s] * 1e12.
	l.staticPJ += totalW.EnergyPerCycle(m.ClockHz())
	l.cycles++
}

// Cycles returns the number of measured cycles integrated so far.
func (l *Ledger) Cycles() int64 { return l.cycles }

// DynamicEnergyPJ returns total dynamic energy, optionally per category.
// It is a raw-float reporting boundary for stats/metrics consumers.
func (l *Ledger) DynamicEnergyPJ() float64 {
	var sum Picojoules
	for _, e := range l.dynPJ {
		sum += e
	}
	return float64(sum)
}

// CategoryEnergyPJ returns the dynamic energy billed to one category.
// It is a raw-float reporting boundary for stats/metrics consumers.
func (l *Ledger) CategoryEnergyPJ(c DynCategory) float64 { return float64(l.dynPJ[c]) }

// StaticEnergyPJ returns total integrated leakage energy.
// It is a raw-float reporting boundary for stats/metrics consumers.
func (l *Ledger) StaticEnergyPJ() float64 { return float64(l.staticPJ) }

// TotalEnergyPJ returns static plus dynamic energy.
func (l *Ledger) TotalEnergyPJ() float64 { return l.StaticEnergyPJ() + l.DynamicEnergyPJ() }

// DynamicPowerW returns average dynamic power over the measured window.
func (l *Ledger) DynamicPowerW() float64 {
	if l.cycles == 0 {
		return 0
	}
	return l.DynamicEnergyPJ() * 1e-12 / l.model.CyclesToSeconds(l.cycles)
}

// StaticPowerW returns average static power over the measured window.
func (l *Ledger) StaticPowerW() float64 {
	if l.cycles == 0 {
		return 0
	}
	return l.StaticEnergyPJ() * 1e-12 / l.model.CyclesToSeconds(l.cycles)
}

// TotalPowerW returns average total power over the measured window.
func (l *Ledger) TotalPowerW() float64 { return l.StaticPowerW() + l.DynamicPowerW() }
