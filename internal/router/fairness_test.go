package router

import (
	"testing"

	"flov/internal/config"
	"flov/internal/noc"
)

// Switch allocation must never grant two flits to one output port (or
// take two flits from one input port) in a single cycle.
func TestSAOneFlitPerPortPerCycle(t *testing.T) {
	cfg := config.Default()
	h := newHarness(t, cfg)
	// Saturate: three packets on distinct input VCs, all wanting East.
	for i := 0; i < 3; i++ {
		p := &noc.Packet{ID: uint64(i + 1), Src: 0, Dst: 1, Size: 4}
		fl := noc.MakePacketFlits(p)
		for j := range fl {
			f := &fl[j]
			f.VC = i
			h.localIn.Push(int64(j), f)
		}
	}
	for h.now < 40 {
		h.step()
		count := 0
		h.eastOut.Drain(h.now, func(*noc.Flit) { count++ })
		if count > 1 {
			t.Fatalf("cycle %d: %d flits crossed one output port", h.now, count)
		}
	}
}

// VC allocation round-robin: with three packets contending for the same
// output, every one of them is eventually granted (no starvation).
func TestVAFairness(t *testing.T) {
	cfg := config.Default()
	h := newHarness(t, cfg)
	for i := 0; i < 3; i++ {
		p := &noc.Packet{ID: uint64(i + 1), Src: 0, Dst: 1, Size: 4}
		fl := noc.MakePacketFlits(p)
		for j := range fl {
			f := &fl[j]
			f.VC = i
			h.localIn.Push(int64(i*4+j), f)
		}
	}
	delivered := map[uint64]bool{}
	for h.now < 80 {
		h.step()
		h.eastOut.Drain(h.now, func(f *noc.Flit) {
			if f.Type.IsTail() {
				delivered[f.Pkt.ID] = true
			}
			// Echo credits so nothing starves on flow control.
			h.eastCred.Push(h.now, CreditSignal(f.VC))
		})
	}
	for id := uint64(1); id <= 3; id++ {
		if !delivered[id] {
			t.Fatalf("packet %d starved", id)
		}
	}
}

// Distinct downstream VCs: two packets allocated to one output port in
// flight simultaneously must hold different output VCs.
func TestVADistinctDownstreamVCs(t *testing.T) {
	cfg := config.Default()
	h := newHarness(t, cfg)
	for i := 0; i < 2; i++ {
		p := &noc.Packet{ID: uint64(i + 1), Src: 0, Dst: 1, Size: 4}
		fl := noc.MakePacketFlits(p)
		for j := range fl {
			f := &fl[j]
			f.VC = i
			h.localIn.Push(int64(j), f)
		}
	}
	seen := map[uint64]int{}
	for h.now < 40 {
		h.step()
		h.eastOut.Drain(h.now, func(f *noc.Flit) {
			if prev, ok := seen[f.Pkt.ID]; ok && prev != f.VC {
				t.Fatalf("packet %d changed downstream VC mid-flight: %d -> %d", f.Pkt.ID, prev, f.VC)
			}
			seen[f.Pkt.ID] = f.VC
		})
	}
	if len(seen) == 2 && seen[1] == seen[2] {
		t.Fatalf("both in-flight packets share downstream VC %d", seen[1])
	}
}
