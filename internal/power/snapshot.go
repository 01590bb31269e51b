package power

// LedgerState is the serializable accumulator state of a Ledger. The
// model is derived from the config and rebuilt by the caller.
type LedgerState struct {
	DynPJ    []float64 // one entry per DynCategory
	StaticPJ float64
	Cycles   int64
	Enabled  bool
}

// CaptureState copies the ledger's accumulators. The snapshot wire
// format stays raw []float64, so this crosses out of the unit types.
func (l *Ledger) CaptureState() LedgerState {
	dyn := make([]float64, len(l.dynPJ))
	for i, e := range l.dynPJ {
		dyn[i] = float64(e)
	}
	return LedgerState{
		DynPJ:    dyn,
		StaticPJ: float64(l.staticPJ),
		Cycles:   l.cycles,
		Enabled:  l.enabled,
	}
}

// RestoreState overwrites the ledger's accumulators. Like the copy() it
// replaced, a short DynPJ slice leaves the remaining categories alone.
func (l *Ledger) RestoreState(s LedgerState) {
	for i := 0; i < len(s.DynPJ) && i < len(l.dynPJ); i++ {
		l.dynPJ[i] = Picojoules(s.DynPJ[i])
	}
	l.staticPJ = Picojoules(s.StaticPJ)
	l.cycles = s.Cycles
	l.enabled = s.Enabled
}
