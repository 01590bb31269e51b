package network

import (
	"fmt"

	"flov/internal/assert"
	"flov/internal/config"
	"flov/internal/nlog"
	"flov/internal/noc"
	"flov/internal/router"
	"flov/internal/sim"
	"flov/internal/stats"
)

// NI is the network interface attached to one router's Local port. It
// queues generated packets per virtual network, injects flits under
// credit flow control (one flit per cycle), and reassembles/ejects
// arriving packets.
type NI struct {
	ID  int
	Cfg config.Config //flovsnap:skip immutable run configuration

	// Channel endpoints (the router holds the mirrored ends).
	sendFlit *sim.Delay[*noc.Flit]     // NI -> router local input //flovsnap:skip captured through the router Local port by the snapshot channel enumeration
	recvFlit *sim.Delay[*noc.Flit]     // router local output -> NI //flovsnap:skip captured through the router Local port by the snapshot channel enumeration
	credIn   *sim.Delay[router.Signal] // router -> NI: credits for injection VCs //flovsnap:skip captured through the router Local port by the snapshot channel enumeration
	credOut  *sim.Delay[router.Signal] // NI -> router: credits for ejection buffers //flovsnap:skip captured through the router Local port by the snapshot channel enumeration

	queues  [][]*noc.Packet // per-vnet source queues (unbounded)
	sending []txState       // per-vnet in-flight injection (pkt nil when idle)
	out     *noc.OutputVCState
	vnetRR  int

	// CanInject gates new flit injection (Router Parking reconfiguration
	// stalls). nil means always allowed.
	CanInject func() bool //flovsnap:skip wiring installed by network.New
	// OnDeliver is called when a packet's tail is consumed.
	OnDeliver func(p *noc.Packet, now int64) //flovsnap:skip observer hook, not simulation state

	Stats *stats.Collector //flovsnap:skip aliases the network-level collector, captured once there
	// Trace, when set, records packet deliveries.
	Trace *nlog.Log //flovsnap:skip opt-in observability ring, not simulation state

	cal   *sim.Calendar //flovsnap:skip the network's wake calendar, wired by network.New
	calID int           //flovsnap:skip the NI's calendar id, fixed at construction
}

// txState tracks one packet being serialized into the router. The NI
// holds it by value; a nil pkt marks an idle vnet.
type txState struct {
	pkt   *noc.Packet
	flits []noc.Flit
	next  int
	vc    int
}

// newNI builds an NI filed in cal under id N()+id; the caller wires
// channels via Connect.
func newNI(id int, cfg config.Config, st *stats.Collector, cal *sim.Calendar) *NI {
	vnets := cfg.VNets
	return &NI{
		ID:      id,
		Cfg:     cfg,
		queues:  make([][]*noc.Packet, vnets),
		sending: make([]txState, vnets),
		out:     noc.NewOutputVCState(cfg.VCsTotal(), cfg.BufferDepth, true),
		Stats:   st,
		cal:     cal,
		calID:   cfg.N() + id,
	}
}

// OutState exposes the NI's injection credit state (invariant checks).
func (ni *NI) OutState() *noc.OutputVCState { return ni.out }

// Connect wires the NI's four channel endpoints.
func (ni *NI) Connect(send, recv *sim.Delay[*noc.Flit], credIn, credOut *sim.Delay[router.Signal]) {
	ni.sendFlit, ni.recvFlit = send, recv
	ni.credIn, ni.credOut = credIn, credOut
}

// Enqueue appends a generated packet to its vnet's source queue.
func (ni *NI) Enqueue(p *noc.Packet) {
	if p.VNet < 0 || p.VNet >= len(ni.queues) {
		panic(fmt.Sprintf("ni %d: packet %d has invalid vnet %d", ni.ID, p.ID, p.VNet))
	}
	ni.queues[p.VNet] = append(ni.queues[p.VNet], p)
	// A busy NI has work, and its router watches a busy NI (FLOV's idle
	// timer). Both run this cycle if the walk has not passed them yet,
	// and the next cycle either way.
	now := ni.cal.Now()
	for _, id := range [2]int{ni.calID, ni.ID} {
		ni.cal.File(id, now)
		ni.cal.File(id, now+1)
	}
}

// QueueLen returns the number of packets waiting (all vnets), excluding
// the ones currently being serialized.
func (ni *NI) QueueLen() int {
	n := 0
	for _, q := range ni.queues {
		n += len(q)
	}
	return n
}

// Busy reports whether any packet is queued or mid-injection.
func (ni *NI) Busy() bool {
	if ni.QueueLen() > 0 {
		return true
	}
	for v := range ni.sending {
		if ni.sending[v].pkt != nil {
			return true
		}
	}
	return false
}

// DropWhere removes queued packets matching pred (classified fault
// losses), invoking onDrop for each. Packets mid-serialization are left
// alone — their flits are already in the network and are dropped at a
// router once the whole packet is co-resident there.
func (ni *NI) DropWhere(pred func(p *noc.Packet) bool, onDrop func(p *noc.Packet)) {
	for v := range ni.queues {
		kept := ni.queues[v][:0]
		for _, p := range ni.queues[v] {
			if pred(p) {
				onDrop(p)
			} else {
				kept = append(kept, p)
			}
		}
		// Zero the tail so dropped packets do not linger in the backing
		// array.
		for i := len(kept); i < len(ni.queues[v]); i++ {
			ni.queues[v][i] = nil
		}
		ni.queues[v] = kept
	}
}

// EachPending visits every packet queued or mid-injection at this NI
// (used by Router Parking's fabric manager to avoid parking routers that
// still have traffic headed their way).
func (ni *NI) EachPending(fn func(p *noc.Packet)) {
	for _, q := range ni.queues {
		for _, p := range q {
			fn(p)
		}
	}
	for v := range ni.sending {
		if p := ni.sending[v].pkt; p != nil {
			fn(p)
		}
	}
}

// Tick processes credits, ejects arrivals, and injects at most one flit.
func (ni *NI) Tick(now int64) {
	for {
		s, ok := ni.credIn.Pop(now)
		if !ok {
			break
		}
		if s.IsCredit {
			ni.out.Return(s.VC)
		}
	}
	for {
		f, ok := ni.recvFlit.Pop(now)
		if !ok {
			break
		}
		ni.eject(f, now)
	}

	ni.inject(now)
}

// due returns the earliest cycle from now on at which a tick can act:
// now while a packet is queued or mid-injection, otherwise the first
// cycle a credit or flit becomes visible (sim.Never with both queues
// empty).
func (ni *NI) due(now int64) int64 {
	if ni.Busy() {
		return now
	}
	return max(min(ni.credIn.NextReady(), ni.recvFlit.NextReady()), now)
}

// checkSkip (flovdebug builds) runs the full tick of an NI the calendar
// skipped at now and fails if it changed the NI or its channels.
func (ni *NI) checkSkip(now int64) {
	want, wantQueued := ni.stateDigest(), ni.queueLens()
	ni.Tick(now)
	if ni.stateDigest() != want {
		assert.Failf("ni %d: skipped tick at cycle %d changed state", ni.ID, now)
	}
	if got := ni.queueLens(); got != wantQueued {
		assert.Failf("ni %d: skipped tick at cycle %d moved channels %v -> %v", ni.ID, now, wantQueued, got)
	}
}

// stateDigest folds what CaptureState records into one digest, without
// allocating (see router.stateDigest).
//
//go:norace
func (ni *NI) stateDigest() assert.Digest {
	var h assert.Digest
	for v, q := range ni.queues {
		h.Add(int64(len(q)))
		tx := &ni.sending[v]
		h.AddBool(tx.pkt != nil)
		h.Add(int64(tx.next))
		h.Add(int64(tx.vc))
	}
	for vc, c := range ni.out.Credits {
		h.Add(int64(c))
		h.AddBool(ni.out.Allocated[vc])
	}
	h.Add(int64(ni.vnetRR))
	return h
}

// queueLens returns the lengths of the NI's four channels.
//
//go:norace
func (ni *NI) queueLens() [4]int {
	return [4]int{ni.sendFlit.Len(), ni.recvFlit.Len(), ni.credIn.Len(), ni.credOut.Len()}
}

// eject consumes one arriving flit, returning its buffer credit and
// completing the packet on tail.
func (ni *NI) eject(f *noc.Flit, now int64) {
	ni.credOut.Push(now, router.CreditSignal(f.VC))
	ni.Stats.NoteEjectedFlits(1)
	if f.Type.IsTail() {
		p := f.Pkt
		if p.Dst != ni.ID {
			panic(fmt.Sprintf("ni %d: misdelivered packet %d (dst %d)", ni.ID, p.ID, p.Dst))
		}
		p.EjectedAt = now
		if ni.Trace != nil {
			ni.Trace.Addf(now, nlog.KPacket, ni.ID, "delivered pkt%d %d->%d lat=%d", p.ID, p.Src, p.Dst, p.TotalLatency())
		}
		ni.Stats.Record(p)
		if ni.OnDeliver != nil {
			ni.OnDeliver(p, now)
		}
	}
}

// inject advances packet serialization: allocate a VC for a queued packet
// when none is active for its vnet, then send one flit if credits allow.
// Round-robin across vnets; one flit per cycle total.
func (ni *NI) inject(now int64) {
	vnets := len(ni.queues)

	// Start new transmissions where a vnet is idle and has queued work.
	// An injection stall (Router Parking Phase I) blocks only new
	// packets; a packet already mid-serialization finishes, so the
	// network can always drain to empty.
	newOK := ni.CanInject == nil || ni.CanInject()
	for v := 0; newOK && v < vnets; v++ {
		if ni.sending[v].pkt != nil || len(ni.queues[v]) == 0 {
			continue
		}
		pkt := ni.queues[v][0]
		vc := ni.allocVC(v)
		if vc < 0 {
			continue
		}
		copy(ni.queues[v], ni.queues[v][1:])
		ni.queues[v] = ni.queues[v][:len(ni.queues[v])-1]
		ni.out.Allocated[vc] = true
		ni.sending[v] = txState{pkt: pkt, flits: noc.MakePacketFlits(pkt), vc: vc}
	}

	// Send one flit, round-robin across vnets with active transmissions.
	for i := 0; i < vnets; i++ {
		v := (ni.vnetRR + i) % vnets
		tx := &ni.sending[v]
		if tx.pkt == nil || ni.out.Credits[tx.vc] <= 0 {
			continue
		}
		f := &tx.flits[tx.next]
		f.VC = tx.vc
		if f.Type.IsHead() {
			tx.pkt.InjectedAt = now
		}
		ni.out.Consume(tx.vc)
		ni.sendFlit.Push(now, f)
		ni.Stats.NoteInjectedFlits(1)
		tx.next++
		if tx.next == len(tx.flits) {
			ni.out.Allocated[tx.vc] = false
			*tx = txState{}
		}
		ni.vnetRR = (v + 1) % vnets
		return
	}
}

// allocVC picks an unallocated regular VC of vnet v in the router's local
// input port, or -1.
func (ni *NI) allocVC(v int) int {
	base := ni.Cfg.VCBase(v)
	for i := 0; i < ni.Cfg.VCsPerVNet; i++ {
		if !ni.out.Allocated[base+i] {
			return base + i
		}
	}
	return -1
}
