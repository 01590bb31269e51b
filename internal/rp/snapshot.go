package rp

import (
	"fmt"

	"flov/internal/routing"
)

// State is the serializable mutable state of the Router Parking
// mechanism. The routing table is derived state: it is rebuilt from the
// parked set on restore, so snapshots stay small and the table never has
// to be serialized.
type State struct {
	Parked        []bool
	Reconfiguring bool
	ReconfigReady int64
	PendingGated  []bool
	Reconfigs     int64
	StallStart    int64
}

// CaptureState copies the mechanism's mutable state.
func (m *Mechanism) CaptureState() State {
	return State{
		Parked:        append([]bool(nil), m.parked...),
		Reconfiguring: m.reconfiguring,
		ReconfigReady: m.reconfigReady,
		PendingGated:  append([]bool(nil), m.pendingGated...),
		Reconfigs:     m.reconfigs,
		StallStart:    m.stallStart,
	}
}

// RestoreState overwrites the mechanism's mutable state and rebuilds the
// up*/down* routing table for the restored parked set. The router route
// closures installed by Attach read m.table through the receiver, so
// swapping the pointer re-routes every router at once.
func (m *Mechanism) RestoreState(s State) error {
	n := m.net.Cfg.N()
	if len(s.Parked) != n {
		return fmt.Errorf("rp: snapshot parked set covers %d nodes, network has %d", len(s.Parked), n)
	}
	if len(s.PendingGated) != 0 && len(s.PendingGated) != n {
		return fmt.Errorf("rp: snapshot pending mask covers %d nodes, network has %d", len(s.PendingGated), n)
	}
	active := make([]bool, n)
	for i, p := range s.Parked {
		active[i] = !p && !m.routerDead(i)
	}
	t, err := routing.BuildUpDownTableLinks(m.net.Mesh, active, m.fmNode, m.linkOK())
	if err != nil {
		return fmt.Errorf("rp: rebuilding table from snapshot: %w", err)
	}
	m.parked = append(m.parked[:0], s.Parked...)
	m.table = t
	m.reconfiguring = s.Reconfiguring
	m.reconfigReady = s.ReconfigReady
	m.pendingGated = append([]bool(nil), s.PendingGated...)
	m.reconfigs = s.Reconfigs
	m.stallStart = s.StallStart
	m.powerRouters(m.net.Now())
	// Derived from the (already restored) fault injector, not serialized.
	if m.net.Faults != nil {
		m.faultPermSeen = m.net.Faults.PermanentVersion()
	}
	return nil
}
