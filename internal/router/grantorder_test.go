package router

import (
	"fmt"
	"reflect"
	"testing"

	"flov/internal/config"
	"flov/internal/noc"
	"flov/internal/power"
	"flov/internal/routing"
	"flov/internal/sim"
	"flov/internal/topology"
)

// The mask-driven VA and SA stages must grant exactly what a plain scan
// over every input VC grants, in the same order and with the same side
// effects. These tests drive random router states through both and
// compare everything the stages can touch.

// randFaults is a FaultHook with fixed, randomly drawn answers.
type randFaults struct {
	blocked    [topology.NumPorts]bool
	recovering bool
	dropAfter  int64
}

func (f *randFaults) FilterRoute(_ topology.Direction, _ *noc.Packet, dec routing.Decision, _ int64) routing.Decision {
	return dec
}
func (f *randFaults) LinkBlocked(d topology.Direction) bool { return f.blocked[d] }
func (f *randFaults) Recovering() bool                      { return f.recovering }
func (f *randFaults) StuckDrop(_ *noc.Packet, waited int64) bool {
	return waited > f.dropAfter
}

// grantScenario is the random environment both routers of a trial share.
type grantScenario struct {
	allocOK [topology.NumPorts]bool
	faults  *randFaults // nil: no fault hook
}

// newGrantRouter builds the centre router of a 3x3 mesh with all five
// ports wired to fresh queues and the scenario's hooks installed.
func newGrantRouter(t *testing.T, cfg config.Config, sc *grantScenario, drops *[]string) *Router {
	t.Helper()
	mesh, err := topology.NewMesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	ledger := power.NewLedger(power.NewModel(cfg))
	ledger.SetEnabled(true)
	r := New(mesh.ID(1, 1), cfg, mesh, ledger)
	for p := range r.Ports {
		r.Ports[p] = PortLink{
			OutFlit: sim.NewDelay[*noc.Flit](cfg.LinkLatency),
			InFlit:  sim.NewDelay[*noc.Flit](cfg.LinkLatency),
			OutCtrl: sim.NewDelay[Signal](1),
			InCtrl:  sim.NewDelay[Signal](1),
		}
	}
	r.WatchInputs()
	r.AllocOK = func(d topology.Direction) bool { return sc.allocOK[d] }
	if sc.faults != nil {
		r.Faults = sc.faults
	}
	r.OnDrop = func(pkt *noc.Packet, flits int, now int64) {
		*drops = append(*drops, fmt.Sprintf("pkt%d x%d @%d", pkt.ID, flits, now))
	}
	return r
}

// randomize fills r with a random but protocol-shaped state at cycle
// now: VC states, buffered packet fragments (a VC past RC may hold a
// mid-packet front; one before it always fronts a head), routes,
// grants, timestamps, credits, allocations and all three round-robin
// pointers, which are drawn large so the rotated scans start anywhere
// and wrap.
func randomize(rng *sim.RNG, r *Router, sc *grantScenario, now int64) {
	cfg := r.Cfg
	depth := cfg.BufferDepth
	nextID := uint64(1)
	newPkt := func() *noc.Packet {
		vnet := rng.Intn(cfg.VNets)
		p := &noc.Packet{ID: nextID, Size: 1 + rng.Intn(cfg.PacketSize), VNet: vnet, Escape: rng.Intn(4) == 0}
		nextID++
		return p
	}
	for p := range r.in {
		for v := range r.in[p] {
			ivc := &r.in[p][v]
			s := noc.VCState(rng.Intn(numVCStates))
			if s == noc.VCIdle {
				continue
			}
			r.setState(topology.Direction(p), ivc, s)
			ivc.OutDir = topology.Direction(rng.Intn(int(topology.NumPorts)))
			ivc.RCCycle = now - int64(rng.Intn(3))
			ivc.WaitSince = now - int64(rng.Intn(3*cfg.EscapeTimeout))
			if s == noc.VCActive {
				ivc.OutVC = rng.Intn(cfg.VCsTotal())
				ivc.VACycle = now - int64(rng.Intn(4))
				r.out[ivc.OutDir].Allocated[ivc.OutVC] = true
			}
			// Buffered flits: a fragment of one packet, then possibly
			// whole packets and a final head behind it.
			arrived := now - int64(rng.Intn(6))
			pkt := newPkt()
			first := 0
			if s == noc.VCActive {
				first = rng.Intn(pkt.Size + 1) // Size: an empty Active VC
			}
			for ivc.Len() < depth {
				fl := noc.MakePacketFlits(pkt)
				last := len(fl)
				if rng.Intn(2) == 0 {
					last = first + rng.Intn(len(fl)-first+1)
				}
				for i := first; i < last && ivc.Len() < depth; i++ {
					fl[i].VC = v
					ivc.Push(&fl[i], arrived)
					arrived += int64(rng.Intn(2))
				}
				if last < len(fl) || rng.Intn(2) == 0 {
					break
				}
				pkt, first = newPkt(), 0
			}
		}
	}
	for p := range r.out {
		for vc := range r.out[p].Credits {
			r.out[p].Credits[vc] = rng.Intn(depth + 1)
			if rng.Intn(3) == 0 {
				r.out[p].Allocated[vc] = true
			}
		}
		r.vaPtr[p] = rng.Intn(1 << 30)
		r.saPtr[p] = rng.Intn(1 << 30)
		r.inPtr[p] = rng.Intn(1 << 30)
		sc.allocOK[p] = rng.Intn(4) != 0
	}
	// The flits went in through ivc.Push, behind the router's back, so
	// its flit count and occupancy masks are recounted.
	r.buffered = r.countBuffered()
	r.occ = r.occupancy()
	if rng.Intn(2) == 0 {
		f := &randFaults{recovering: rng.Intn(2) == 0, dropAfter: int64(rng.Intn(3 * cfg.EscapeTimeout))}
		for d := range f.blocked {
			f.blocked[d] = rng.Intn(4) == 0
		}
		sc.faults = f
		r.Faults = f
	}
}

// scanVA is the reference VC allocator: for each output, gather every
// input VC waiting on it in (port, VC) order by scanning all VCs, then
// grant round-robin from vaPtr.
func scanVA(r *Router, now int64) {
	for out := 0; out < int(topology.NumPorts); out++ {
		outDir := topology.Direction(out)
		if !r.Ports[out].Connected() {
			continue
		}
		var reqs []saRequest
		for p := range r.in {
			for v := range r.in[p] {
				ivc := &r.in[p][v]
				if ivc.State == noc.VCWaitVC && ivc.OutDir == outDir && ivc.RCCycle < now {
					reqs = append(reqs, saRequest{port: topology.Direction(p), ivc: ivc})
				}
			}
		}
		if len(reqs) == 0 {
			continue
		}
		if r.AllocOK != nil && outDir != topology.Local && !r.AllocOK(outDir) {
			for _, q := range reqs {
				r.setState(q.port, q.ivc, noc.VCRouting)
			}
			continue
		}
		start := r.vaPtr[out] % len(reqs)
		for i := 0; i < len(reqs); i++ {
			q := reqs[(start+i)%len(reqs)]
			f := q.ivc.Front()
			if f == nil {
				continue
			}
			var cands []int
			if f.Pkt.Escape && outDir != topology.Local {
				cands = []int{r.Cfg.EscapeVC(f.Pkt.VNet)}
			} else {
				for j := 0; j < r.Cfg.VCsPerVNet; j++ {
					cands = append(cands, r.Cfg.VCBase(f.Pkt.VNet)+j)
				}
			}
			granted := -1
			for _, vc := range cands {
				if !r.out[out].Allocated[vc] {
					granted = vc
					break
				}
			}
			if granted < 0 {
				continue
			}
			r.out[out].Allocated[granted] = true
			q.ivc.OutVC = granted
			r.setState(q.port, q.ivc, noc.VCActive)
			q.ivc.VACycle = now
			q.ivc.WaitSince = now
			r.Ledger.AddDyn(power.CatArbitration, 1)
		}
		r.vaPtr[out]++
		if r.Faults != nil && r.Faults.Recovering() {
			for _, q := range reqs {
				ivc := q.ivc
				if ivc.State != noc.VCWaitVC {
					continue
				}
				f := ivc.Front()
				if f == nil {
					continue
				}
				waited := now - ivc.WaitSince
				if r.Faults.StuckDrop(f.Pkt, waited) {
					r.dropFront(q.port, ivc, now)
					continue
				}
				if !f.Pkt.Escape && waited > int64(r.Cfg.EscapeTimeout) {
					f.Pkt.Escape = true
					r.setState(q.port, ivc, noc.VCRouting)
				}
			}
		}
	}
}

// scanSA is the reference switch allocator: each input port visits all
// its VCs in rotated order from inPtr and bids with the first ready
// Active VC; each output then recounts its bids and grants round-robin
// from saPtr.
func scanSA(r *Router, now int64) {
	pipeGate := int64(r.Cfg.RouterStages)
	var bids [topology.NumPorts]*noc.InputVC
	for p := range r.in {
		n := len(r.in[p])
		start := r.inPtr[p] % n
		for i := 0; i < n; i++ {
			ivc := &r.in[p][(start+i)%n]
			if ivc.State != noc.VCActive || ivc.Empty() || ivc.FrontArrived()+pipeGate > now {
				continue
			}
			if r.Faults != nil && ivc.OutDir != topology.Local && r.Faults.LinkBlocked(ivc.OutDir) {
				r.releaseBlocked(topology.Direction(p), ivc, now)
				continue
			}
			if r.out[ivc.OutDir].Credits[ivc.OutVC] <= 0 {
				r.maybeEscapeStarved(topology.Direction(p), ivc, now)
				continue
			}
			bids[p] = ivc
			break
		}
		r.inPtr[p]++
	}
	for out := 0; out < int(topology.NumPorts); out++ {
		cands := 0
		for p := range bids {
			if bids[p] != nil && bids[p].OutDir == topology.Direction(out) {
				cands++
			}
		}
		if cands == 0 {
			continue
		}
		pick := r.saPtr[out] % cands
		r.saPtr[out]++
		for p := range bids {
			if bids[p] == nil || bids[p].OutDir != topology.Direction(out) {
				continue
			}
			if pick == 0 {
				r.traverse(topology.Direction(p), bids[p], now)
				bids[p] = nil
				break
			}
			pick--
		}
	}
}

// grantView is everything VA and SA can change, in comparable form.
type grantView struct {
	Router  State
	Packets []noc.PacketState
	Flits   [topology.NumPorts][]noc.FlitState
	Ctrl    [topology.NumPorts][]Signal
	Ledger  power.LedgerState
	Drops   []string
}

func viewOf(r *Router, drops []string) grantView {
	t := noc.NewPacketTable()
	g := grantView{Router: r.CaptureState(t), Ledger: r.Ledger.CaptureState(), Drops: drops}
	for p := range r.Ports {
		r.Ports[p].OutFlit.Each(func(f *noc.Flit) { g.Flits[p] = append(g.Flits[p], noc.CaptureFlit(t, f)) })
		r.Ports[p].OutCtrl.Each(func(s Signal) { g.Ctrl[p] = append(g.Ctrl[p], s) })
	}
	for _, p := range t.List {
		g.Packets = append(g.Packets, noc.CapturePacket(p))
	}
	return g
}

func testGrantOrder(t *testing.T, cfg config.Config, trials int) {
	rng := sim.NewRNG(1)
	for trial := 0; trial < trials; trial++ {
		now := int64(1000 + rng.Intn(1000))
		var sc grantScenario
		var dropsA, dropsB []string
		a := newGrantRouter(t, cfg, &sc, &dropsA)
		randomize(rng, a, &sc, now)

		// The reference router starts from a capture of the same state,
		// so it also checks that restore rebuilds the state and
		// occupancy masks.
		b := newGrantRouter(t, cfg, &sc, &dropsB)
		pt := noc.NewPacketTable()
		st := a.CaptureState(pt)
		pkts := make([]*noc.Packet, len(pt.List))
		for i, p := range pt.List {
			pkts[i] = noc.CapturePacket(p).Materialize()
		}
		if err := b.RestoreState(st, pkts); err != nil {
			t.Fatal(err)
		}
		if a.stMask != b.stMask {
			t.Fatalf("trial %d: restored masks %v, want %v", trial, b.stMask, a.stMask)
		}
		if a.occ != b.occ {
			t.Fatalf("trial %d: restored occupancy masks %v, want %v", trial, b.occ, a.occ)
		}

		a.stageVA(now)
		a.stageSA(now)
		scanVA(b, now)
		scanSA(b, now)

		if a.stMask != a.stateMasks() {
			t.Fatalf("trial %d: masks out of step with VC states after VA/SA", trial)
		}
		if a.occ != a.occupancy() {
			t.Fatalf("trial %d: occupancy masks out of step with VC buffers after VA/SA", trial)
		}
		if ga, gb := viewOf(a, dropsA), viewOf(b, dropsB); !reflect.DeepEqual(ga, gb) {
			t.Fatalf("trial %d: mask-driven VA/SA diverged from the reference scan\n got  %+v\n want %+v", trial, ga, gb)
		}
	}
}

func TestGrantOrderMatchesScan(t *testing.T) {
	testGrantOrder(t, config.Default(), 3000)
}

func TestGrantOrderMatchesScanFullSystem(t *testing.T) {
	cfg := config.FullSystem()
	if cfg.VCsTotal() != 12 {
		t.Fatalf("FullSystem has %d VCs per port, this test means to cover 12", cfg.VCsTotal())
	}
	testGrantOrder(t, cfg, 3000)
}
