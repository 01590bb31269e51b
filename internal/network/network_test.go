package network

import (
	"testing"

	"flov/internal/config"
	"flov/internal/gating"
	"flov/internal/noc"
	"flov/internal/traffic"
)

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := config.Default()
	cfg.BufferDepth = 0
	if _, err := New(cfg, NewBaseline(), nil, nil, 0); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestNewRejectsMismatchedSchedule(t *testing.T) {
	cfg := config.Default()
	sched := gating.Static(make([]bool, 5))
	if _, err := New(cfg, NewBaseline(), sched, nil, 0); err == nil {
		t.Fatal("mismatched schedule accepted")
	}
}

func TestManualInjectionAndDelivery(t *testing.T) {
	cfg := config.Default()
	cfg.TotalCycles = 1 << 30
	n, err := New(cfg, NewBaseline(), nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got *noc.Packet
	n.NIs[63].OnDeliver = func(p *noc.Packet, now int64) { got = p }
	p := n.NewPacket(0, 63, 0, 4)
	n.NIs[0].Enqueue(p)
	for i := 0; i < 200 && got == nil; i++ {
		n.Step()
	}
	if got != p {
		t.Fatal("packet not delivered")
	}
	if p.EjectedAt <= p.InjectedAt || p.InjectedAt < p.CreatedAt {
		t.Fatalf("timestamps inconsistent: %d %d %d", p.CreatedAt, p.InjectedAt, p.EjectedAt)
	}
	// Corner to corner: 14 hops, 15 routers: min ~ 15*3 + 14 + NI + ser.
	if lat := p.TotalLatency(); lat < 60 || lat > 90 {
		t.Fatalf("corner-to-corner latency %d implausible", lat)
	}
	if !n.Drained() {
		t.Fatal("network not drained after delivery")
	}
}

func TestNIMisdeliveryPanics(t *testing.T) {
	cfg := config.Default()
	n, err := New(cfg, NewBaseline(), nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt routing: everything ejects immediately at the source.
	p := n.NewPacket(1, 63, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected misdelivery panic")
		}
	}()
	// Deliver the packet to the wrong NI directly.
	f := noc.MakePacketFlits(p)[0]
	n.NIs[0].eject(f, 0)
}

func TestVNetQueuesIndependent(t *testing.T) {
	cfg := config.FullSystem()
	cfg.TotalCycles = 1 << 30
	n, err := New(cfg, NewBaseline(), nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	delivered := map[uint64]bool{}
	n.NIs[10].OnDeliver = func(p *noc.Packet, now int64) { delivered[p.ID] = true }
	var pkts []*noc.Packet
	for v := 0; v < 3; v++ {
		p := n.NewPacket(0, 10, v, 4)
		pkts = append(pkts, p)
		n.NIs[0].Enqueue(p)
	}
	for i := 0; i < 400 && len(delivered) < 3; i++ {
		n.Step()
	}
	for _, p := range pkts {
		if !delivered[p.ID] {
			t.Fatalf("vnet %d packet not delivered", p.VNet)
		}
	}
}

func TestEnqueueInvalidVNetPanics(t *testing.T) {
	cfg := config.Default()
	n, err := New(cfg, NewBaseline(), nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid vnet")
		}
	}()
	n.NIs[0].Enqueue(n.NewPacket(0, 1, 9, 1))
}

func TestCanInjectStallsNewPacketsOnly(t *testing.T) {
	cfg := config.Default()
	n, err := New(cfg, NewBaseline(), nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	allow := true
	n.NIs[0].CanInject = func() bool { return allow }
	p1 := n.NewPacket(0, 5, 0, 4)
	n.NIs[0].Enqueue(p1)
	// Let serialization start, then stall.
	for i := 0; i < 3; i++ {
		n.Step()
	}
	allow = false
	p2 := n.NewPacket(0, 6, 0, 4)
	n.NIs[0].Enqueue(p2)
	done := map[uint64]bool{}
	n.NIs[5].OnDeliver = func(p *noc.Packet, now int64) { done[p.ID] = true }
	n.NIs[6].OnDeliver = func(p *noc.Packet, now int64) { done[p.ID] = true }
	for i := 0; i < 300; i++ {
		n.Step()
	}
	if !done[p1.ID] {
		t.Fatal("mid-flight packet must finish during a stall")
	}
	if done[p2.ID] {
		t.Fatal("new packet injected during a stall")
	}
	allow = true
	for i := 0; i < 300 && !done[p2.ID]; i++ {
		n.Step()
	}
	if !done[p2.ID] {
		t.Fatal("stalled packet never delivered after release")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() Results {
		cfg := config.Default()
		cfg.TotalCycles = 10_000
		cfg.WarmupCycles = 1_000
		gen := traffic.NewGenerator(traffic.Uniform, mustMesh(t, cfg), nil)
		n, err := New(cfg, NewBaseline(), nil, gen, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		return n.Run()
	}
	a, b := run(), run()
	if a.AvgLatency != b.AvgLatency || a.Packets != b.Packets || a.TotalEnergyPJ != b.TotalEnergyPJ {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestWarmupExcludedFromEnergy(t *testing.T) {
	cfg := config.Default()
	cfg.TotalCycles = 5_000
	cfg.WarmupCycles = 1_000
	gen := traffic.NewGenerator(traffic.Uniform, mustMesh(t, cfg), nil)
	n, err := New(cfg, NewBaseline(), nil, gen, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	res := n.Run()
	if res.Cycles != cfg.TotalCycles-cfg.WarmupCycles {
		t.Fatalf("measured %d cycles, want %d", res.Cycles, cfg.TotalCycles-cfg.WarmupCycles)
	}
}

func TestSetGatingMask(t *testing.T) {
	cfg := config.Default()
	n, err := New(cfg, NewBaseline(), nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]bool, cfg.N())
	mask[7] = true
	n.SetGatingMask(mask)
	if !n.CoreGated(7) || n.CoreGated(8) {
		t.Fatal("SetGatingMask not applied")
	}
}

func TestPacketIDsMonotonic(t *testing.T) {
	cfg := config.Default()
	n, _ := New(cfg, NewBaseline(), nil, nil, 0)
	a := n.NewPacket(0, 1, 0, 1)
	b := n.NewPacket(0, 1, 0, 1)
	if b.ID != a.ID+1 {
		t.Fatalf("packet ids not monotonic: %d then %d", a.ID, b.ID)
	}
}
