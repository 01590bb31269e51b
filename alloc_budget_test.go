package flov_test

import (
	"testing"

	"flov"
	"flov/internal/config"
	"flov/internal/fault"
)

// allocWindow is how many cycles TestStepAllocBudget counts mallocs
// over, and allocResidue how many of them may allocate for a reason
// other than a new packet.
const (
	allocWindow  = 10_000
	allocResidue = allocWindow / 100
)

// TestStepAllocBudget states the cycle kernel's allocation contract: a
// packet costs two mallocs, the Packet when it is created and its flit
// slab when its NI starts sending it, and everything else — routing,
// the FLOV sleep/latch path, link queues, power transitions, RP
// reconfiguration, fault events — stays within one malloc per 100
// cycles. Packets still queued at their NI have no slab yet, which
// matters past RP's knee, where the source queues grow. Each mechanism
// runs in FLOV's home regime (0.02 flits/node/cycle, 70% of cores
// gated) and just below saturation (0.34, none gated), and gFLOV once
// more under link faults. The window starts past WarmupCycles because
// Stats.Created counts only measured packets.
func TestStepAllocBudget(t *testing.T) {
	if raceDetectorOn {
		t.Skip("the race detector allocates on the kernel's behalf")
	}
	type regime struct {
		name        string
		mech        config.Mechanism
		rate, gated float64
		faults      fault.Spec
	}
	var regimes []regime
	for _, m := range flov.AllMechanisms() {
		regimes = append(regimes,
			regime{m.String() + "/lowload", m, 0.02, 0.7, fault.Spec{}},
			regime{m.String() + "/saturation", m, 0.34, 0, fault.Spec{}})
	}
	regimes = append(regimes, regime{"gFLOV/lowload-faults", flov.GFLOV, 0.02, 0.7, fault.Spec{Seed: 1, LinkRate: 1e-3}})
	for _, r := range regimes {
		t.Run(r.name, func(t *testing.T) {
			cfg := flov.Default()
			mech, err := flov.NewMechanism(r.mech)
			if err != nil {
				t.Fatal(err)
			}
			n := newLoadedNetwork(t, cfg, mech, r.rate, r.gated)
			if !r.faults.Zero() {
				if err := n.AttachFaults(r.faults); err != nil {
					t.Fatal(err)
				}
			}
			for n.Now() < cfg.WarmupCycles {
				n.Step()
			}
			queued := func() (q int64) {
				for _, ni := range n.NIs {
					q += int64(ni.QueueLen())
				}
				return q
			}
			// AllocsPerRun calls the window once unmeasured first, so
			// the packet counts are the last call's.
			var created, started int64
			allocs := testing.AllocsPerRun(1, func() {
				created0, queued0 := n.Stats.Created(), queued()
				for i := 0; i < allocWindow; i++ {
					n.Step()
				}
				created = n.Stats.Created() - created0
				started = created - (queued() - queued0)
			})
			if created == 0 {
				t.Fatal("no packets created in the window")
			}
			if n.Faults != nil && n.Faults.LinkFaults() == 0 {
				t.Fatal("no link fault injected")
			}
			budget := created + started + allocResidue
			t.Logf("%.0f mallocs over %d cycles: %d packets created, %d started, %.0f left over",
				allocs, allocWindow, created, started, allocs-float64(created+started))
			if int64(allocs) > budget {
				t.Errorf("%.0f mallocs over %d cycles, budget %d (%d created + %d started + %d)",
					allocs, allocWindow, budget, created, started, allocResidue)
			}
		})
	}
}
