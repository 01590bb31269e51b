package network

import (
	"flov/internal/assert"
	"flov/internal/noc"
	"flov/internal/router"
	"flov/internal/sim"
	"flov/internal/topology"
)

// FlitHolder is implemented by mechanisms whose power-gated datapath
// holds flits outside router buffers and link queues (the FLOV output
// latches), so flit conservation can account for them.
type FlitHolder interface {
	HeldFlits() int
}

// LinkCreditSteady is implemented by mechanisms that rewrite credit
// counters during power transitions (FLOV credit copy-up and sync). It
// reports whether router id's credit state on port d currently tracks
// its physical neighbor one-to-one, which makes strict per-VC credit
// conservation checkable on that link. Mechanisms that never rewrite
// credits (Baseline, Router Parking) fall back to RouterOn.
type LinkCreditSteady interface {
	LinkCreditSteady(id int, d topology.Direction) bool
}

// CheckInvariants walks the whole network and fails loudly (via
// assert.Failf) on any violated structural invariant:
//
//   - every input VC holds at most its buffer depth, and every credit
//     counter lies in [0, depth];
//   - flit conservation: flits injected minus flits ejected equals the
//     flits currently sitting in input buffers, link queues, injection/
//     ejection queues and mechanism latches;
//   - per-VC credit conservation on every steady link: sender credits
//     plus flits in flight plus receiver occupancy plus credits in
//     flight equals the buffer depth.
//
// Step runs it every cycle under the flovdebug build tag; it is
// exported so tests can drive it in ordinary builds too.
func (n *Network) CheckInvariants() {
	n.checkBounds()
	n.checkFlitConservation()
	n.checkCreditConservation()
}

// checkBounds verifies buffer occupancy and credit-counter ranges.
func (n *Network) checkBounds() {
	vcs := n.Cfg.VCsTotal()
	for id, r := range n.Routers {
		for p := topology.Direction(0); p < topology.NumPorts; p++ {
			for vc := 0; vc < vcs; vc++ {
				if ivc := r.InVC(p, vc); ivc.Len() > ivc.Capacity() {
					assert.Failf("router %d port %s vc %d: occupancy %d exceeds depth %d at cycle %d",
						id, p, vc, ivc.Len(), ivc.Capacity(), n.now)
				}
			}
			out := r.Out(p)
			for vc, c := range out.Credits {
				if c < 0 || c > out.Depth() {
					assert.Failf("router %d port %s vc %d: credit counter %d outside [0,%d] at cycle %d",
						id, p, vc, c, out.Depth(), n.now)
				}
			}
		}
	}
	for id, ni := range n.NIs {
		out := ni.OutState()
		for vc, c := range out.Credits {
			if c < 0 || c > out.Depth() {
				assert.Failf("ni %d vc %d: credit counter %d outside [0,%d] at cycle %d",
					id, vc, c, out.Depth(), n.now)
			}
		}
	}
}

// checkFlitConservation matches the stats counters against the flits
// actually present in the network. Every queue is owned by exactly one
// router port: OutFlit covers the ejection queue and every inter-router
// link (each link is one router's output), and the Local InFlit is the
// injection queue.
func (n *Network) checkFlitConservation() {
	vcs := n.Cfg.VCsTotal()
	counted := int64(0)
	for _, r := range n.Routers {
		for p := topology.Direction(0); p < topology.NumPorts; p++ {
			for vc := 0; vc < vcs; vc++ {
				counted += int64(r.InVC(p, vc).Len())
			}
			if q := r.Ports[p].OutFlit; q != nil {
				counted += int64(q.Len())
			}
		}
		if q := r.Ports[topology.Local].InFlit; q != nil {
			counted += int64(q.Len())
		}
	}
	if h, ok := n.Mech.(FlitHolder); ok {
		counted += int64(h.HeldFlits())
	}
	if inFlight := n.Stats.InFlightFlits(); counted != inFlight {
		assert.Failf("flit conservation: stats say %d in flight but %d found in buffers/queues/latches at cycle %d",
			inFlight, counted, n.now)
	}
}

// linkSteady reports whether router id's credit state on port d can be
// held to strict conservation this cycle.
func (n *Network) linkSteady(id int, d topology.Direction) bool {
	if ls, ok := n.Mech.(LinkCreditSteady); ok {
		return ls.LinkCreditSteady(id, d)
	}
	return n.Mech.RouterOn(id)
}

// tallyVCs counts the flits queued in flits and the credit signals
// queued in credits (either may be nil) by VC index. The counts live in
// one scratch buffer reused across calls, so they are only valid until
// the next call.
func (n *Network) tallyVCs(flits *sim.Delay[*noc.Flit], credits *sim.Delay[router.Signal], vcs int) (f, c []int) {
	if cap(n.vcTally) < 2*vcs {
		n.vcTally = make([]int, 2*vcs)
	}
	t := n.vcTally[:2*vcs]
	clear(t)
	f, c = t[:vcs], t[vcs:]
	if flits != nil {
		flits.Each(func(fl *noc.Flit) { f[fl.VC]++ })
	}
	if credits != nil {
		credits.Each(func(s router.Signal) {
			if s.IsCredit {
				c[s.VC]++
			}
		})
	}
	return f, c
}

// checkCreditConservation verifies, per VC on every steady link, that
// sender credits + flits in flight + receiver buffer occupancy +
// credits in flight equals the buffer depth. Links whose endpoints are
// mid-transition (power-gated, draining credit games, awaiting a
// credit sync) are skipped — their counters deliberately track a
// logical neighbor further away.
func (n *Network) checkCreditConservation() {
	vcs := n.Cfg.VCsTotal()
	for id, r := range n.Routers {
		// Inter-router links: this router is the sender.
		for d := topology.Direction(0); d < topology.NumLinkDirs; d++ {
			nb := n.Mesh.Neighbor(id, d)
			if nb < 0 {
				continue
			}
			opp := d.Opposite()
			if !n.linkSteady(id, d) || !n.linkSteady(nb, opp) {
				continue
			}
			out := r.Out(d)
			flits, creds := n.tallyVCs(r.Ports[d].OutFlit, r.Ports[d].InCtrl, vcs)
			recv := n.Routers[nb]
			for vc := 0; vc < vcs; vc++ {
				sum := out.Credits[vc] + flits[vc] + recv.InVC(opp, vc).Len() + creds[vc]
				if sum != out.Depth() {
					assert.Failf("credit conservation on link %d->%d vc %d: credits %d + in-flight %d + buffered %d + returning %d = %d, want depth %d (cycle %d)",
						id, nb, vc, out.Credits[vc], flits[vc], recv.InVC(opp, vc).Len(), creds[vc], sum, out.Depth(), n.now)
				}
			}
		}

		// Local link, both directions: NI -> router (injection) and
		// router -> NI (ejection).
		if !n.linkSteady(id, topology.Local) {
			continue
		}
		ni := n.NIs[id]
		inj, injCreds := n.tallyVCs(r.Ports[topology.Local].InFlit, r.Ports[topology.Local].OutCtrl, vcs)
		niOut := ni.OutState()
		for vc := 0; vc < vcs; vc++ {
			sum := niOut.Credits[vc] + inj[vc] + r.InVC(topology.Local, vc).Len() + injCreds[vc]
			if sum != niOut.Depth() {
				assert.Failf("credit conservation on ni %d injection vc %d: credits %d + in-flight %d + buffered %d + returning %d = %d, want depth %d (cycle %d)",
					id, vc, niOut.Credits[vc], inj[vc], r.InVC(topology.Local, vc).Len(), injCreds[vc], sum, niOut.Depth(), n.now)
			}
		}
		ej, ejCreds := n.tallyVCs(r.Ports[topology.Local].OutFlit, r.Ports[topology.Local].InCtrl, vcs)
		out := r.Out(topology.Local)
		for vc := 0; vc < vcs; vc++ {
			// The NI ejects instantly, so nothing is ever buffered on its
			// side of the link.
			sum := out.Credits[vc] + ej[vc] + ejCreds[vc]
			if sum != out.Depth() {
				assert.Failf("credit conservation on ni %d ejection vc %d: credits %d + in-flight %d + returning %d = %d, want depth %d (cycle %d)",
					id, vc, out.Credits[vc], ej[vc], ejCreds[vc], sum, out.Depth(), n.now)
			}
		}
	}
}
