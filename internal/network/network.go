// Package network assembles a complete simulated NoC: routers, links,
// network interfaces, a traffic source, a core-gating schedule, a power
// ledger and one of the four power-gating mechanisms. It owns the main
// cycle loop and produces the Results every figure is built from.
package network

import (
	"fmt"

	"flov/internal/assert"
	"flov/internal/config"
	"flov/internal/fault"
	"flov/internal/gating"
	"flov/internal/nlog"
	"flov/internal/noc"
	"flov/internal/power"
	"flov/internal/router"
	"flov/internal/sim"
	"flov/internal/stats"
	"flov/internal/topology"
	"flov/internal/traffic"
)

// Mechanism is a power-gating scheme plugged into a Network. Baseline
// lives in this package; FLOV in internal/core; Router Parking in
// internal/rp.
type Mechanism interface {
	// Name returns the mechanism name for reports.
	Name() string
	// Attach wires the mechanism into a freshly built network (install
	// router hooks, initialize power state). Called exactly once.
	Attach(n *Network)
	// OnGatingChange delivers a new core-gating mask (from the schedule).
	OnGatingChange(now int64, gated []bool)
	// TickRouter advances router id one cycle, including whatever
	// datapath a power-gated router still runs (FLOV latches). It returns
	// the earliest later cycle at which the router must be visited again
	// even if nothing new is pushed to it: the next cycle while it holds
	// owed work, a pending timer, the ready cycle of input it has yet to
	// take, or sim.Never.
	TickRouter(id int, now int64) int64
	// FinishRouters runs once per cycle after the router visits (Router
	// Parking commits its reconfigurations here).
	FinishRouters(now int64)
	// CanInject reports whether node id may inject flits this cycle
	// (Router Parking stalls injection during reconfiguration).
	CanInject(node int) bool
	// RouterPowerCounts returns how many routers currently burn full
	// static power and how many are power-gated (residual leakage).
	RouterPowerCounts() (on, gated int)
	// RouterOn reports whether router id's pipeline is powered on.
	RouterOn(id int) bool
	// FLOVCapable selects the FLOV leakage model (HSC/latch overheads).
	FLOVCapable() bool
	// Quiescent reports whether the mechanism has in-flight protocol
	// work (handshakes, reconfigurations) that should block drain
	// detection at the end of a run.
	Quiescent() bool
}

// Network is one fully wired simulated NoC.
type Network struct {
	Cfg     config.Config
	Mesh    topology.Mesh
	Routers []*router.Router
	NIs     []*NI
	Mech    Mechanism
	Ledger  *power.Ledger
	Stats   *stats.Collector

	// Trace, when enabled, records simulator events into a bounded ring
	// (power transitions, gating changes, reconfigurations, deliveries).
	Trace *nlog.Log //flovsnap:skip opt-in observability ring, not simulation state

	Schedule *gating.Schedule   //flovsnap:skip immutable schedule; progress is captured as schedIdx
	Gen      *traffic.Generator // nil for closed-loop (trace) runs
	InjRate  float64            // offered load, flits/cycle/node //flovsnap:skip immutable run parameter

	// Faults is the optional fault-injection subsystem (AttachFaults);
	// nil for ordinary runs.
	Faults *fault.Injector

	// InjectHook, when set, replaces synthetic generation (closed-loop
	// drivers enqueue packets themselves each cycle).
	InjectHook func(now int64) //flovsnap:skip wiring reinstalled by the closed-loop driver on restore

	// cal is the wake calendar over component ids: router id is id, NI
	// id is N()+id. Step visits only the ids filed for the cycle.
	cal *sim.Calendar //flovsnap:skip derived wake schedule; RestoreState files every component

	rng           *sim.RNG
	faultSpecJSON string // canonical fault spec (snapshot compatibility)
	dropAfter     int64  // fault drop timeout in cycles //flovsnap:skip derived from the fault spec in AttachFaults
	injectors     []*traffic.Injector
	gatedMask     []bool
	activeScratch []bool //flovsnap:skip scratch for activeMask, re-derived from gatedMask
	schedIdx      int
	nextPkt       uint64
	now           int64
	genStop       int64 // cycle after which synthetic generation stops

	// ejectedAtWarmup snapshots the flit counter at the measurement-
	// window start so throughput excludes warmup traffic.
	ejectedAtWarmup int64
}

// New builds a network for cfg with the given mechanism, schedule and
// (optional) synthetic traffic generator. The mechanism is attached and
// the initial gating mask applied before New returns.
func New(cfg config.Config, mech Mechanism, sched *gating.Schedule, gen *traffic.Generator, injRate float64) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mesh, err := topology.NewMesh(cfg.Width, cfg.Height)
	if err != nil {
		return nil, err
	}
	if sched != nil && sched.N() != cfg.N() {
		return nil, fmt.Errorf("network: schedule covers %d nodes, config has %d", sched.N(), cfg.N())
	}
	model := power.NewModel(cfg)
	ledger := power.NewLedger(model)
	st := stats.NewCollector(cfg.WarmupCycles, cfg.TimelineBinSz, cfg.RouterStages, cfg.FLOVHopLatency)

	n := &Network{
		Cfg:      cfg,
		Mesh:     mesh,
		Mech:     mech,
		Ledger:   ledger,
		Stats:    st,
		Schedule: sched,
		Gen:      gen,
		InjRate:  injRate,
		rng:      sim.NewRNG(cfg.Seed),
		genStop:  cfg.TotalCycles,
		nextPkt:  1,
	}

	// Routers and NIs. The calendar's horizon is the longest push: a
	// flit link, or a control signal relayed through a sleeping FLOV
	// router (latency 1 plus one registered cycle).
	n.cal = sim.NewCalendar(2*cfg.N(), max(cfg.LinkLatency, 2))
	n.Routers = make([]*router.Router, cfg.N())
	n.NIs = make([]*NI, cfg.N())
	for id := 0; id < cfg.N(); id++ {
		n.Routers[id] = router.New(id, cfg, mesh, ledger)
		n.NIs[id] = newNI(id, cfg, st, n.cal)
	}

	// Inter-router channels: for each directed adjacency, one flit queue
	// (latency LinkLatency) and one control queue (latency 1) flowing the
	// opposite way. Each queue files its consumer in the calendar.
	for id := 0; id < cfg.N(); id++ {
		for d := topology.Direction(0); d < topology.NumLinkDirs; d++ {
			nb := mesh.Neighbor(id, d)
			if nb < 0 {
				continue
			}
			flitQ := sim.NewDelay[*noc.Flit](cfg.LinkLatency)
			flitQ.SetConsumer(n.cal, nb)
			ctrlQ := sim.NewDelay[router.Signal](1)
			ctrlQ.SetConsumer(n.cal, id)
			n.Routers[id].Ports[d].OutFlit = flitQ
			n.Routers[id].Ports[d].InCtrl = ctrlQ
			opp := d.Opposite()
			n.Routers[nb].Ports[opp].InFlit = flitQ
			n.Routers[nb].Ports[opp].OutCtrl = ctrlQ
		}
	}

	// NI <-> router local channels.
	for id := 0; id < cfg.N(); id++ {
		inj := sim.NewDelay[*noc.Flit](1)
		ej := sim.NewDelay[*noc.Flit](1)
		credUp := sim.NewDelay[router.Signal](1)   // router -> NI
		credDown := sim.NewDelay[router.Signal](1) // NI -> router
		inj.SetConsumer(n.cal, id)
		credDown.SetConsumer(n.cal, id)
		ej.SetConsumer(n.cal, cfg.N()+id)
		credUp.SetConsumer(n.cal, cfg.N()+id)
		r := n.Routers[id]
		r.Ports[topology.Local].InFlit = inj
		r.Ports[topology.Local].OutFlit = ej
		r.Ports[topology.Local].OutCtrl = credUp
		r.Ports[topology.Local].InCtrl = credDown
		n.NIs[id].Connect(inj, ej, credUp, credDown)
		node := id
		n.NIs[id].CanInject = func() bool { return n.Mech.CanInject(node) }
		r.WatchInputs()
	}

	// Per-node injection processes.
	if gen != nil {
		n.injectors = make([]*traffic.Injector, cfg.N())
		for id := 0; id < cfg.N(); id++ {
			n.injectors[id] = traffic.NewInjector(injRate, cfg.PacketSize, n.rng.Fork(uint64(id)+1))
		}
	}

	// Initial gating mask.
	if sched != nil {
		n.gatedMask = append([]bool(nil), sched.MaskAt(0)...)
	} else {
		n.gatedMask = make([]bool, cfg.N())
	}
	if gen != nil {
		gen.SetActive(n.activeMask())
	}

	mech.Attach(n)
	n.gatingChanged(0)
	return n, nil
}

// gatingChanged hands the current gating mask to the mechanism and files
// every component: any router may react to its core's new state.
func (n *Network) gatingChanged(now int64) {
	n.Mech.OnGatingChange(now, n.gatedMask)
	n.cal.FileAll(now)
}

// FileAll files every router and NI for a visit at cycle at. Mechanisms
// call it after changing router state outside a router's own visit
// (Router Parking's reconfiguration).
func (n *Network) FileAll(at int64) { n.cal.FileAll(at) }

// countGated counts set entries in a gating mask.
func countGated(mask []bool) int {
	n := 0
	for _, g := range mask {
		if g {
			n++
		}
	}
	return n
}

// EnableTrace attaches an event log to the network and its NIs. Call
// before running; mechanisms pick it up lazily.
func (n *Network) EnableTrace(l *nlog.Log) {
	n.Trace = l
	for _, ni := range n.NIs {
		ni.Trace = l
	}
}

// activeMask inverts the gating mask into a reused buffer (SetActive
// copies, so handing out the scratch is safe). Valid until the next call.
func (n *Network) activeMask() []bool {
	n.activeScratch = n.activeScratch[:0]
	for _, g := range n.gatedMask {
		n.activeScratch = append(n.activeScratch, !g)
	}
	return n.activeScratch
}

// Now returns the current cycle.
func (n *Network) Now() int64 { return n.now }

// GatedMask returns the current core-gating mask (do not mutate).
func (n *Network) GatedMask() []bool { return n.gatedMask }

// CoreGated reports whether node id's core is currently power-gated.
func (n *Network) CoreGated(id int) bool { return n.gatedMask[id] }

// NewPacket allocates a packet with a fresh id, stamped CreatedAt now.
func (n *Network) NewPacket(src, dst, vnet, size int) *noc.Packet {
	p := &noc.Packet{
		ID:        n.nextPkt,
		Src:       src,
		Dst:       dst,
		VNet:      vnet,
		Size:      size,
		CreatedAt: n.now,
	}
	n.nextPkt++
	n.Stats.NotePacketCreated(n.now)
	return p
}

// Step advances the whole network one cycle.
func (n *Network) Step() {
	now := n.now

	// 1. Core-gating schedule transitions.
	if n.Schedule != nil {
		evs := n.Schedule.Events()
		for n.schedIdx+1 < len(evs) && evs[n.schedIdx+1].At <= now {
			n.schedIdx++
			n.gatedMask = append(n.gatedMask[:0], evs[n.schedIdx].Gated...)
			if n.Gen != nil {
				n.Gen.SetActive(n.activeMask())
			}
			if n.Trace != nil {
				n.Trace.Addf(now, nlog.KGating, -1, "mask changed: %d cores gated", countGated(n.gatedMask)) //flovlint:allow hotalloc -- opt-in tracing of gating-change events
			}
			n.gatingChanged(now)
		}
	}

	// 2. Fault injection (before traffic generation, so a fault landing
	// at cycle t is visible to everything that runs at t).
	if n.Faults != nil {
		n.stepFaults(now)
	}

	// 3. Traffic generation.
	if n.Gen != nil && now < n.genStop {
		for id, ni := range n.NIs {
			if n.gatedMask[id] || !n.injectors[id].ShouldInject() {
				continue
			}
			dst := n.Gen.Dest(id, n.rng)
			if dst < 0 {
				continue
			}
			ni.Enqueue(n.NewPacket(id, dst, 0, n.Cfg.PacketSize))
		}
	}
	if n.InjectHook != nil {
		n.InjectHook(now)
	}

	// 4. Routers filed for this cycle (mechanism-specific: gated routers
	// run latch datapaths), then 5. network interfaces. Both walks re-read
	// the calendar, so a component filed for this cycle mid-walk at a
	// higher id still runs.
	nr := len(n.Routers)
	from := 0
	for id := n.cal.Next(0, nr); id >= 0; id = n.cal.Next(id+1, nr) {
		if assert.On {
			n.checkSkipped(from, id, now)
		}
		n.cal.File(id, n.Mech.TickRouter(id, now))
		from = id + 1
	}
	if assert.On {
		n.checkSkipped(from, nr, now)
	}
	n.Mech.FinishRouters(now)
	from = nr
	for id := n.cal.Next(nr, 2*nr); id >= 0; id = n.cal.Next(id+1, 2*nr) {
		if assert.On {
			n.checkSkipped(from, id, now)
		}
		ni := n.NIs[id-nr]
		ni.Tick(now)
		n.cal.File(id, ni.due(now+1))
		from = id + 1
	}
	if assert.On {
		n.checkSkipped(from, 2*nr, now)
	}

	// 6. Leakage integration.
	on, gated := n.Mech.RouterPowerCounts()
	n.Ledger.TickStatic(on, gated, n.Mech.FLOVCapable())

	// 7. Runtime invariants (flovdebug builds only; compiled away
	// otherwise).
	if assert.On {
		n.CheckInvariants()
	}

	n.cal.Advance()
	n.now++
}

// routerDigester is implemented by mechanisms that keep per-router state
// of their own (FLOV); the skipped-tick cross-check folds it in.
type routerDigester interface {
	RouterDigest(id int) assert.Digest
}

// checkSkipped (flovdebug builds) runs the full tick of every component
// in [from, to) that the calendar skipped this cycle, and fails if any
// tick changed state beyond what the lazy input-pointer accounting
// owes. Channel latency is at least one cycle, so the tick sees exactly
// what it would have seen at the component's place in the walk.
func (n *Network) checkSkipped(from, to int, now int64) {
	nr := len(n.Routers)
	dg, _ := n.Mech.(routerDigester)
	for id := from; id < to; id++ {
		if id >= nr {
			n.NIs[id-nr].checkSkip(now)
			continue
		}
		r := n.Routers[id]
		probe := r.ProbeSkip()
		var mech assert.Digest
		if dg != nil {
			mech = dg.RouterDigest(id)
		}
		n.Mech.TickRouter(id, now)
		r.CheckSkip(probe, now)
		if dg != nil && dg.RouterDigest(id) != mech {
			assert.Failf("%s router %d: skipped tick at cycle %d changed mechanism state", n.Mech.Name(), id, now)
		}
	}
}

// StopGeneration ends synthetic traffic generation at the given cycle.
func (n *Network) StopGeneration(at int64) { n.genStop = at }

// Generating reports whether the next Step still generates synthetic
// traffic.
func (n *Network) Generating() bool { return n.Gen != nil && n.now < n.genStop }

// SetGatingMask applies a new core-gating mask immediately (closed-loop
// drivers re-shape the active set at phase boundaries instead of using a
// pre-built schedule).
func (n *Network) SetGatingMask(mask []bool) {
	n.gatedMask = append(n.gatedMask[:0], mask...)
	if n.Gen != nil {
		n.Gen.SetActive(n.activeMask())
	}
	n.gatingChanged(n.now)
}

// Drained reports whether no packets remain anywhere: source queues,
// router buffers, links, or mechanism protocol state.
func (n *Network) Drained() bool {
	if n.Stats.InFlightFlits() != 0 {
		return false
	}
	for _, ni := range n.NIs {
		if ni.Busy() {
			return false
		}
	}
	return n.Mech.Quiescent()
}
