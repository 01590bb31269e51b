package router

import (
	"testing"

	"flov/internal/config"
	"flov/internal/noc"
	"flov/internal/routing"
	"flov/internal/topology"
)

func TestReRouteReturnsPendingToRC(t *testing.T) {
	cfg := config.Default()
	h := newHarness(t, cfg)
	ivc := h.r.InVC(topology.Local, 0)
	h.r.SetVCState(topology.Local, 0, noc.VCWaitVC)
	ivc.OutDir = topology.East
	// A packet toward another direction is untouched.
	other := h.r.InVC(topology.Local, 1)
	h.r.SetVCState(topology.Local, 1, noc.VCWaitVC)
	other.OutDir = topology.North

	h.r.ReRoute(topology.East)
	if ivc.State != noc.VCRouting {
		t.Fatalf("pending East route not invalidated: %v", ivc.State)
	}
	if other.State != noc.VCWaitVC {
		t.Fatalf("unrelated direction invalidated: %v", other.State)
	}
}

func TestReRouteLeavesCommittedPackets(t *testing.T) {
	cfg := config.Default()
	h := newHarness(t, cfg)
	ivc := h.r.InVC(topology.Local, 0)
	h.r.SetVCState(topology.Local, 0, noc.VCActive)
	ivc.OutDir = topology.East
	h.r.ReRoute(topology.East)
	if ivc.State != noc.VCActive {
		t.Fatal("committed packet was re-routed (handshake relies on it finishing)")
	}
	h.r.SetVCState(topology.Local, 0, noc.VCIdle) // restore for other checks
}

func TestArrivalsPendingAndLocalActivity(t *testing.T) {
	cfg := config.Default()
	h := newHarness(t, cfg)
	if h.r.ArrivalsPending() || h.r.LocalActivity() {
		t.Fatal("fresh router reports pending work")
	}
	p := &noc.Packet{ID: 1, Src: 0, Dst: 1, Size: 1}
	f := &noc.MakePacketFlits(p)[0]
	h.localIn.Push(0, f)
	if !h.r.ArrivalsPending() {
		t.Fatal("queued arrival not detected")
	}
	h.step() // cycle 0: flit not yet visible (1-cycle link)
	h.step() // cycle 1: received into the local buffer
	if h.r.ArrivalsPending() {
		t.Fatal("arrival still pending after receive")
	}
	if !h.r.LocalActivity() {
		t.Fatal("buffered local flit not detected as local activity")
	}
}

func TestLocalActivityOnEjection(t *testing.T) {
	cfg := config.Default()
	h := newHarness(t, cfg)
	p := &noc.Packet{ID: 1, Src: 1, Dst: 0, Size: 4} // routes to Local
	h.inject(p, 0)
	saw := false
	for h.now < 10 {
		h.step()
		if h.r.LocalActivity() {
			saw = true
		}
	}
	if !saw {
		t.Fatal("packet being ejected never counted as local activity")
	}
}

func TestEscapeStarvedReleasesUntouchedAllocation(t *testing.T) {
	cfg := config.Default()
	cfg.EscapeTimeout = 5
	h := newHarness(t, cfg)
	// Zero the East credits so an allocated packet starves pre-flight.
	out := h.r.Out(topology.East)
	for vc := range out.Credits {
		out.Credits[vc] = 0
	}
	p := &noc.Packet{ID: 1, Src: 0, Dst: 1, Size: 4}
	h.inject(p, 0)
	escapeRouted := false
	h.r.RouteFn = func(inDir topology.Direction, escape bool, pkt *noc.Packet) routing.Decision {
		if escape {
			escapeRouted = true
		}
		return routing.Decision{Dir: topology.East}
	}
	for h.now < 40 {
		h.step()
	}
	if !p.Escape || !escapeRouted {
		t.Fatalf("starved pre-flight packet did not escape (escape=%v rerouted=%v)", p.Escape, escapeRouted)
	}
	// The regular-VC allocation must have been released.
	base := cfg.VCBase(0)
	for vc := base; vc < base+cfg.VCsPerVNet; vc++ {
		if out.Allocated[vc] {
			t.Fatalf("regular VC %d still allocated after escape re-route", vc)
		}
	}
}

func TestCtrlSignalConstructor(t *testing.T) {
	s := CtrlSignal(42)
	if s.IsCredit || s.Msg != 42 {
		t.Fatalf("CtrlSignal wrong: %+v", s)
	}
	c := CreditSignal(3)
	if !c.IsCredit || c.VC != 3 {
		t.Fatalf("CreditSignal wrong: %+v", c)
	}
}
