package core

import (
	"flov/internal/assert"
	"flov/internal/network"
	"flov/internal/nlog"
	"flov/internal/power"
	"flov/internal/topology"
)

// Mechanism is the FLOV power-gating scheme (restricted or generalized)
// plugged into a network.Network.
type Mechanism struct {
	// OnTransition, when set, observes every router power-state change
	// (event tracing, tests). Must be set before the first cycle.
	OnTransition func(now int64, id int, from, to PowerState) //flovsnap:skip observer hook, not simulation state

	generalized bool
	net         *network.Network //flovsnap:skip wiring installed by Attach
	ledger      *power.Ledger    //flovsnap:skip wiring installed by Attach
	ws          []*flovRouter
	sleeping    int // routers in Sleep, kept by transition //flovsnap:skip derived from the router power states; RestoreState recounts it
}

// NewRFLOV returns the restricted-FLOV mechanism: no two consecutive
// routers in a row/column may be power-gated simultaneously.
func NewRFLOV() *Mechanism { return &Mechanism{} }

// NewGFLOV returns the generalized-FLOV mechanism: arbitrary runs of
// consecutive routers may be power-gated, with handshakes and credits
// relayed across them.
func NewGFLOV() *Mechanism { return &Mechanism{generalized: true} }

// Name implements network.Mechanism.
func (m *Mechanism) Name() string {
	if m.generalized {
		return "gFLOV"
	}
	return "rFLOV"
}

// Attach wraps every router with the FLOV architecture.
func (m *Mechanism) Attach(n *network.Network) {
	m.net = n
	m.ledger = n.Ledger
	if m.OnTransition == nil {
		m.OnTransition = func(now int64, id int, from, to PowerState) {
			if n.Trace != nil {
				n.Trace.Addf(now, nlog.KTransition, id, "%v -> %v", from, to)
			}
		}
	}
	m.ws = make([]*flovRouter, n.Cfg.N())
	for id, r := range n.Routers {
		w := newFLOVRouter(id, m, r, n.Mesh, n.Cfg)
		ni := n.NIs[id]
		w.localBusy = ni.Busy
		m.ws[id] = w
	}
}

// OnGatingChange updates per-router core power states; routers react
// autonomously (drain or wake) — there is no central coordination.
func (m *Mechanism) OnGatingChange(now int64, gated []bool) {
	for id, w := range m.ws {
		g := gated[id]
		if g == w.coreGated {
			continue
		}
		w.coreGated = g
		w.lastLocal = now
		if !g {
			// The OS woke the core: the router must power back on.
			w.wantWake = true
		}
	}
}

// TickRouter advances FLOV router id (full pipeline, draining pipeline,
// latch datapath, or wakeup) one cycle and returns its next due cycle.
func (m *Mechanism) TickRouter(id int, now int64) int64 {
	w := m.ws[id]
	w.Tick(now)
	return w.due(now + 1)
}

// FinishRouters has nothing to do: FLOV has no central coordination.
func (m *Mechanism) FinishRouters(now int64) {}

// RouterDigest folds router id's wrapper state into one digest (the
// network's flovdebug cross-check of skipped ticks).
func (m *Mechanism) RouterDigest(id int) assert.Digest { return m.ws[id].stateDigest() }

// CanInject allows injection whenever the node's own router pipeline is
// powered. FLOV never stalls the network globally — only a locally
// power-gated or still-waking router makes its NI hold packets back.
func (m *Mechanism) CanInject(node int) bool {
	s := m.ws[node].state
	return s == Active || s == Draining
}

// RouterPowerCounts: Sleep routers burn residual leakage; Active,
// Draining and Wakeup routers burn full leakage.
func (m *Mechanism) RouterPowerCounts() (on, gated int) {
	if assert.On {
		if n := m.countSleeping(); n != m.sleeping {
			assert.Failf("flov: sleeping counter %d, recount %d", m.sleeping, n)
		}
	}
	return len(m.ws) - m.sleeping, m.sleeping
}

// countSleeping recounts the routers in Sleep.
func (m *Mechanism) countSleeping() int {
	n := 0
	for _, w := range m.ws {
		if w.state == Sleep {
			n++
		}
	}
	return n
}

// RouterOn reports whether router id's pipeline is powered.
func (m *Mechanism) RouterOn(id int) bool { return m.ws[id].state != Sleep }

// RouterState exposes the power state (tests, reports).
func (m *Mechanism) RouterState(id int) PowerState { return m.ws[id].state }

// FLOVCapable selects the FLOV leakage model.
func (m *Mechanism) FLOVCapable() bool { return true }

// Quiescent reports whether no handshake currently traps packet flits.
// FLOV transitions never hold packets hostage (latches count as in-flight
// flits), so the network's flit accounting is sufficient.
func (m *Mechanism) Quiescent() bool {
	for _, w := range m.ws {
		if !w.latchesEmpty() {
			return false
		}
	}
	return true
}

// HeldFlits implements network.FlitHolder: flits currently sitting in
// FLOV output latches, which flit-conservation checks must count.
func (m *Mechanism) HeldFlits() int {
	held := 0
	for _, w := range m.ws {
		for _, f := range w.latch {
			if f != nil {
				held++
			}
		}
	}
	return held
}

// LinkCreditSteady implements network.LinkCreditSteady: router id's
// credit state on port d tracks its physical neighbor one-to-one only
// while the router is powered, is not awaiting a credit sync on that
// port, and has not copied up a farther logical neighbor's counters.
func (m *Mechanism) LinkCreditSteady(id int, d topology.Direction) bool {
	w := m.ws[id]
	if w.state != Active && w.state != Draining {
		return false
	}
	if d == topology.Local {
		return true
	}
	return !w.awaitSync[d] && w.physID[d] >= 0 && w.logID[d] == w.physID[d]
}

// SleepStats sums transition counters across routers (tests, reports).
func (m *Mechanism) SleepStats() (sleeps, wakes, aborts int64) {
	for _, w := range m.ws {
		sleeps += w.sleeps
		wakes += w.wakes
		aborts += w.drainAborts
	}
	return
}

// RouterActivity returns flits switched through router id's pipeline
// plus flits that flew over it through FLOV latches (heat maps).
func (m *Mechanism) RouterActivity(id int) int64 {
	return m.net.Routers[id].Traversals + m.ws[id].latchTraversals
}

// GatedRouterIDs lists currently power-gated routers.
func (m *Mechanism) GatedRouterIDs() []int {
	var ids []int
	for id, w := range m.ws {
		if w.state == Sleep {
			ids = append(ids, id)
		}
	}
	return ids
}

var _ network.Mechanism = (*Mechanism)(nil)
