package core

import (
	"fmt"

	"flov/internal/noc"
	"flov/internal/topology"
)

// RouterState is the serializable mutable state of one FLOV router
// wrapper: the power FSM, both PSR sets, the latch datapath, handshake
// bookkeeping and the transition counters. Structural fields (ids,
// never-gate, fly-over dimensions, hooks) are rebuilt by Attach.
type RouterState struct {
	State     PowerState
	CoreGated bool

	PhysState []PowerState // [NumLinkDirs]
	LogID     []int        // [NumLinkDirs]
	LogState  []PowerState // [NumLinkDirs]

	Latch    []noc.FlitState // occupied latches only; LatchDir aligns
	LatchDir []int

	DoneNeeded []bool  // [NumLinkDirs]
	OweDone    [][]int // [NumLinkDirs]
	AwaitSync  []bool  // [NumLinkDirs]

	WantWake   bool
	PoweredAt  int64
	TransStart int64
	RetryAt    int64
	LastLocal  int64

	// wakeSent map as parallel target/cycle lists, in target order.
	WakeTargets []int
	WakeCycles  []int64

	Sleeps          int64
	Wakes           int64
	DrainAborts     int64
	WakeAborts      int64
	LatchTraversals int64
	SleepTraversals int64
}

// State is the serializable mutable state of the FLOV mechanism: one
// entry per router, in id order.
type State struct {
	Routers []RouterState
}

// CaptureState copies the mechanism's mutable state, registering latched
// flits' packets in t.
func (m *Mechanism) CaptureState(t *noc.PacketTable) State {
	var s State
	for _, w := range m.ws {
		rs := RouterState{
			State:      w.state,
			CoreGated:  w.coreGated,
			PhysState:  append([]PowerState(nil), w.physState[:]...),
			LogID:      append([]int(nil), w.logID[:]...),
			LogState:   append([]PowerState(nil), w.logState[:]...),
			DoneNeeded: append([]bool(nil), w.doneNeeded[:]...),
			AwaitSync:  append([]bool(nil), w.awaitSync[:]...),
			WantWake:   w.wantWake,
			PoweredAt:  w.poweredAt,
			TransStart: w.transStart,
			RetryAt:    w.retryAt,
			LastLocal:  w.lastLocal,

			Sleeps:          w.sleeps,
			Wakes:           w.wakes,
			DrainAborts:     w.drainAborts,
			WakeAborts:      w.wakeAborts,
			LatchTraversals: w.latchTraversals,
			SleepTraversals: w.sleepTraversals,
		}
		for d := 0; d < topology.NumLinkDirs; d++ {
			rs.OweDone = append(rs.OweDone, append([]int(nil), w.oweDone[d]...))
			if f := w.latch[d]; f != nil {
				rs.Latch = append(rs.Latch, noc.CaptureFlit(t, f))
				rs.LatchDir = append(rs.LatchDir, d)
			}
		}
		// Rate-limit memory, visited in node-id order so the capture is
		// deterministic without ranging over the map.
		for id := 0; id < len(m.ws); id++ {
			if at, ok := w.wakeSent[id]; ok {
				rs.WakeTargets = append(rs.WakeTargets, id)
				rs.WakeCycles = append(rs.WakeCycles, at)
			}
		}
		s.Routers = append(s.Routers, rs)
	}
	return s
}

// RestoreState overwrites the mechanism's mutable state from a capture.
func (m *Mechanism) RestoreState(s State, pkts []*noc.Packet) error {
	if len(s.Routers) != len(m.ws) {
		return fmt.Errorf("core: snapshot has %d routers, mechanism has %d", len(s.Routers), len(m.ws))
	}
	for id, rs := range s.Routers {
		if len(rs.PhysState) != topology.NumLinkDirs || len(rs.LogID) != topology.NumLinkDirs ||
			len(rs.LogState) != topology.NumLinkDirs || len(rs.DoneNeeded) != topology.NumLinkDirs ||
			len(rs.OweDone) != topology.NumLinkDirs || len(rs.AwaitSync) != topology.NumLinkDirs {
			return fmt.Errorf("core: router %d snapshot has malformed direction vectors", id)
		}
		if len(rs.Latch) != len(rs.LatchDir) || len(rs.WakeTargets) != len(rs.WakeCycles) {
			return fmt.Errorf("core: router %d snapshot has misaligned parallel lists", id)
		}
		for _, ps := range append(append([]PowerState{rs.State}, rs.PhysState...), rs.LogState...) {
			if ps > Wakeup {
				return fmt.Errorf("core: router %d snapshot has invalid power state %d", id, ps)
			}
		}
		w := m.ws[id]
		w.state = rs.State
		w.coreGated = rs.CoreGated
		copy(w.physState[:], rs.PhysState)
		copy(w.logID[:], rs.LogID)
		copy(w.logState[:], rs.LogState)
		copy(w.doneNeeded[:], rs.DoneNeeded)
		copy(w.awaitSync[:], rs.AwaitSync)
		w.owed = 0
		for d := 0; d < topology.NumLinkDirs; d++ {
			w.oweDone[d] = append(w.oweDone[d][:0], rs.OweDone[d]...)
			w.owed += len(w.oweDone[d])
			w.latch[d] = nil
		}
		for i, fs := range rs.Latch {
			d := rs.LatchDir[i]
			if d < 0 || d >= topology.NumLinkDirs {
				return fmt.Errorf("core: router %d snapshot latch direction %d out of range", id, d)
			}
			w.latch[d] = fs.Materialize(pkts)
		}
		w.wantWake = rs.WantWake
		w.poweredAt = rs.PoweredAt
		w.transStart = rs.TransStart
		w.retryAt = rs.RetryAt
		w.lastLocal = rs.LastLocal
		w.wakeSent = make(map[int]int64, len(rs.WakeTargets))
		for i, target := range rs.WakeTargets {
			w.wakeSent[target] = rs.WakeCycles[i]
		}
		w.sleeps = rs.Sleeps
		w.wakes = rs.Wakes
		w.drainAborts = rs.DrainAborts
		w.wakeAborts = rs.WakeAborts
		w.latchTraversals = rs.LatchTraversals
		w.sleepTraversals = rs.SleepTraversals
		w.r.SetDark(m.net.Now(), w.state == Sleep || w.state == Wakeup)
	}
	m.sleeping = m.countSleeping()
	return nil
}
