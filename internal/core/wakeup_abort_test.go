package core

import (
	"slices"
	"testing"

	"flov/internal/config"
	"flov/internal/gating"
	"flov/internal/network"
	"flov/internal/noc"
	"flov/internal/topology"
)

// A waker whose line stays frozen past TransitionTimeout gives up, and
// the abort reaches every router on its lines: each active neighbour
// re-routes, puts its PSRs back (the waker's physical state to Sleep,
// the logical state to Active) and drops the drain_done it still owed;
// a sleeping router on the line relays the abort and observes it. The
// run then drains with every invariant holding.
//
// Row 3 of the mesh, west to east: west (2,3) active, waker (3,3) and
// sleeper (4,3) gated, east (5,3) active. East's pipeline is halted (as
// a router fault halts it) while (0,3), (1,3) and west send packets
// across the line, so west stays committed East and owes the waker its
// drain_done.
func TestWakeupAbortReachesTheLine(t *testing.T) {
	cfg := config.Default()
	cfg.TotalCycles = 1 << 30
	cfg.TransitionTimeout = 24
	cfg.EscapeTimeout = 1 << 20 // west's starved heads must not give up their VCs
	cfg.VCsPerVNet = 2          // three streams cross west: one head must wait for a VC
	mesh, err := topology.NewMesh(cfg.Width, cfg.Height)
	if err != nil {
		t.Fatal(err)
	}
	wakerID, sleeperID := mesh.ID(3, 3), mesh.ID(4, 3)
	westID, eastID := mesh.ID(2, 3), mesh.ID(5, 3)
	northID, southID := mesh.Neighbor(wakerID, topology.North), mesh.Neighbor(wakerID, topology.South)
	gated := make([]bool, cfg.N())
	gated[wakerID], gated[sleeperID] = true, true
	mech := NewGFLOV()
	n, err := network.New(cfg, mech, gating.Static(gated), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	waker, sleeper, west := mech.ws[wakerID], mech.ws[sleeperID], mech.ws[westID]
	step := func() {
		t.Helper()
		n.Step()
		n.CheckInvariants()
	}
	for i := 0; i < 500 && !(waker.state == Sleep && sleeper.state == Sleep && idleAt(waker, n.Now())); i++ {
		step()
	}
	if waker.state != Sleep || sleeper.state != Sleep {
		t.Fatalf("setup: gated routers not asleep (waker %v, sleeper %v)", waker.state, sleeper.state)
	}

	n.Routers[eastID].SetFrozen(n.Now(), true)
	for _, src := range []int{mesh.ID(0, 3), mesh.ID(1, 3), westID} {
		for i := 0; i < 8; i++ {
			n.NIs[src].Enqueue(n.NewPacket(src, mesh.ID(6, 3), 0, cfg.PacketSize))
		}
	}
	for i := 0; i < 60; i++ {
		step()
	}
	if !west.r.CommittedTo(topology.East) {
		t.Fatal("setup: west not committed across the line")
	}

	// The OS wakes the waker's core.
	gated[wakerID] = false
	n.SetGatingMask(gated)
	for i := 0; i < 5 && waker.state != Wakeup; i++ {
		step()
	}
	if waker.state != Wakeup {
		t.Fatalf("waker did not start waking: %v", waker.state)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if west.physState[topology.East] != Wakeup || west.logState[topology.East] != Wakeup ||
		!slices.Contains(west.oweDone[topology.East], wakerID) {
		t.Fatalf("west did not take the wakeup request: phys %v log %v owes %v",
			west.physState[topology.East], west.logState[topology.East], west.oweDone[topology.East])
	}
	if sleeper.logState[topology.West] != Wakeup || sleeper.physState[topology.West] != Wakeup {
		t.Fatalf("sleeper did not observe the wakeup request: phys %v log %v",
			sleeper.physState[topology.West], sleeper.logState[topology.West])
	}

	// West keeps a waiting head bound for the line: the abort must send
	// it back to route computation.
	waiting := func() *noc.InputVC {
		for p := topology.Direction(0); p < topology.NumPorts; p++ {
			for v := 0; v < cfg.VCsTotal(); v++ {
				if ivc := west.r.InVC(p, v); ivc.State == noc.VCWaitVC && ivc.OutDir == topology.East {
					return ivc
				}
			}
		}
		return nil
	}
	if waiting() == nil {
		t.Fatal("setup: west has no head waiting for a VC across the line")
	}

	for i := 0; i <= cfg.TransitionTimeout+1 && waker.state == Wakeup; i++ {
		step()
	}
	if waker.state != Sleep || waker.wakeAborts != 1 {
		t.Fatalf("waker did not time out: state %v, %d aborts", waker.state, waker.wakeAborts)
	}
	if !slices.Contains(west.oweDone[topology.East], wakerID) {
		t.Fatal("setup: west stopped owing the waker before the abort")
	}
	for i := 0; i < 5 && slices.Contains(west.oweDone[topology.East], wakerID); i++ {
		step()
	}
	abortAt := n.Now() - 1
	if slices.Contains(west.oweDone[topology.East], wakerID) {
		t.Fatal("west still owes the waker after its abort")
	}
	if !west.r.CommittedTo(topology.East) {
		t.Fatal("setup: west's commitment across the line ended with the abort")
	}
	if west.physState[topology.East] != Sleep || west.logState[topology.East] != Active {
		t.Fatalf("west after the abort: phys %v log %v, want Sleep Active",
			west.physState[topology.East], west.logState[topology.East])
	}
	if ivc := waiting(); ivc == nil || ivc.RCCycle != abortAt {
		t.Fatalf("west did not re-route toward the line on the abort (cycle %d)", abortAt)
	}
	for _, nb := range []struct {
		id int
		d  topology.Direction
	}{{northID, topology.South}, {southID, topology.North}} {
		w := mech.ws[nb.id]
		if w.physState[nb.d] != Sleep || w.logState[nb.d] != Active || slices.Contains(w.oweDone[nb.d], wakerID) {
			t.Fatalf("router %d after the abort: phys %v log %v owes %v",
				nb.id, w.physState[nb.d], w.logState[nb.d], w.oweDone[nb.d])
		}
	}
	if sleeper.state != Sleep || sleeper.logState[topology.West] != Active || sleeper.physState[topology.West] != Sleep {
		t.Fatalf("sleeper after the abort: state %v phys %v log %v",
			sleeper.state, sleeper.physState[topology.West], sleeper.logState[topology.West])
	}

	// Thaw east: it takes the relayed request, answers it at once (it has
	// nothing committed toward the line) and then takes the abort.
	n.Routers[eastID].SetFrozen(n.Now(), false)
	poked(n)
	east := mech.ws[eastID]
	for i := 0; i < 5 && !(east.logState[topology.West] == Active && n.Routers[eastID].Ports[topology.West].InCtrl.Empty()); i++ {
		step()
	}
	if east.logState[topology.West] != Active || east.physState[topology.West] != Sleep ||
		slices.Contains(east.oweDone[topology.West], wakerID) {
		t.Fatalf("east after the thaw: phys %v log %v owes %v",
			east.physState[topology.West], east.logState[topology.West], east.oweDone[topology.West])
	}

	for i := 0; i < 5000 && !(n.Drained() && waker.state == Active); i++ {
		step()
	}
	if !n.Drained() || waker.state != Active {
		t.Fatalf("run did not drain with the waker awake: drained %v, waker %v", n.Drained(), waker.state)
	}
}
