package router

import (
	"testing"

	"flov/internal/config"
	"flov/internal/noc"
	"flov/internal/topology"
)

// A flit queued on a link but not yet visible leaves the router idle up
// to its ready cycle; idle ticks move only the input round-robin
// pointers, and the flit is received on the ready cycle itself.
func TestIdleUntilQueuedFlitIsReady(t *testing.T) {
	h := newHarness(t, config.Default())
	p := &noc.Packet{ID: 1, Src: 0, Dst: 1, Size: 1}
	f := &noc.MakePacketFlits(p)[0]
	h.localIn.PushAfter(0, 3, f) // latency 1 + 3: visible at cycle 4

	for ; h.now < 4; h.step() {
		if !h.r.idle(h.now) {
			t.Fatalf("router not idle at cycle %d with the flit still on the link", h.now)
		}
	}
	for p, ptr := range h.r.inPtr {
		if ptr != 4 {
			t.Fatalf("port %d input pointer = %d after 4 idle ticks, want 4", p, ptr)
		}
	}
	if h.r.idle(4) {
		t.Fatal("router idle on the flit's ready cycle")
	}
	h.step()
	if h.r.buffered != 1 || h.r.InVC(topology.Local, 0).Len() != 1 {
		t.Fatalf("flit not received on its ready cycle: buffered=%d", h.r.buffered)
	}
}

// A credit becoming visible breaks idleness even with empty buffers.
func TestCreditArrivalBreaksIdle(t *testing.T) {
	h := newHarness(t, config.Default())
	out := h.r.Out(topology.East)
	out.Consume(0)
	h.eastCred.Push(0, CreditSignal(0))

	if !h.r.idle(0) {
		t.Fatal("router not idle before the credit is visible")
	}
	h.step()
	if h.r.idle(1) {
		t.Fatal("router idle with a credit ready")
	}
	h.step()
	if out.Credits[0] != out.Depth() {
		t.Fatalf("credit not processed: %d of %d", out.Credits[0], out.Depth())
	}
	if !h.r.idle(2) {
		t.Fatal("router not idle again once the credit is consumed")
	}
}

// A VC that holds its downstream allocation with an empty buffer (the
// head has left, body flits are still on the link) is idle: nothing can
// move until the next flit arrives.
func TestActiveVCWithEmptyBufferIsIdle(t *testing.T) {
	h := newHarness(t, config.Default())
	p := &noc.Packet{ID: 1, Src: 0, Dst: 1, Size: 2}
	head := &noc.MakePacketFlits(p)[0]
	head.VC = 0
	h.localIn.Push(0, head)

	ivc := h.r.InVC(topology.Local, 0)
	for i := 0; i < 10 && !(ivc.State == noc.VCActive && ivc.Empty()); i++ {
		h.step()
	}
	if ivc.State != noc.VCActive || !ivc.Empty() {
		t.Fatalf("head did not leave its allocated VC: state %v, %d buffered", ivc.State, ivc.Len())
	}
	h.localCred.Drain(h.now, func(Signal) {}) // upstream credit is not an input of the router
	if !h.r.idle(h.now) {
		t.Fatal("VCActive VC with an empty buffer breaks idleness")
	}
	h.step()
	if ivc.State != noc.VCActive || ivc.OutVC < 0 {
		t.Fatalf("idle tick released the allocation: state %v outVC %d", ivc.State, ivc.OutVC)
	}
}

// RestoreState mid-packet recounts the buffered-flit counter from the
// restored buffers.
func TestRestoreRecountsBuffered(t *testing.T) {
	cfg := config.Default()
	h := newHarness(t, cfg)
	// No East credits: the packet stays buffered behind flow control.
	for vc := range h.r.Out(topology.East).Credits {
		h.r.Out(topology.East).Credits[vc] = 0
	}
	p := &noc.Packet{ID: 1, Src: 0, Dst: 1, Size: cfg.PacketSize}
	h.inject(p, 0)
	for i := 0; i < 3; i++ {
		h.step()
	}
	if h.r.buffered == 0 || h.r.buffered == cfg.PacketSize {
		t.Fatalf("want a partly received packet, buffered=%d", h.r.buffered)
	}

	tab := noc.NewPacketTable()
	s := h.r.CaptureState(tab)
	fresh := newHarness(t, cfg)
	if err := fresh.r.RestoreState(s, tab.List); err != nil {
		t.Fatal(err)
	}
	if fresh.r.buffered != fresh.r.countBuffered() || fresh.r.buffered != h.r.buffered {
		t.Fatalf("restored counter %d, recount %d, original %d",
			fresh.r.buffered, fresh.r.countBuffered(), h.r.buffered)
	}
}
