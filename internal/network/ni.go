package network

import (
	"fmt"

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
	sending []*txState      // per-vnet in-flight injection
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
}

// txState tracks one packet being serialized into the router.
type txState struct {
	pkt   *noc.Packet
	flits []*noc.Flit
	next  int
	vc    int
}

// newNI builds an NI; the caller wires channels via Connect.
func newNI(id int, cfg config.Config, st *stats.Collector) *NI {
	vnets := cfg.VNets
	return &NI{
		ID:      id,
		Cfg:     cfg,
		queues:  make([][]*noc.Packet, vnets),
		sending: make([]*txState, vnets),
		out:     noc.NewOutputVCState(cfg.VCsTotal(), cfg.BufferDepth, true),
		Stats:   st,
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
	for _, tx := range ni.sending {
		if tx != nil {
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
				kept = append(kept, p) //flovlint:allow hotalloc -- drop classification runs only under permanent faults
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
	for _, tx := range ni.sending {
		if tx != nil {
			fn(tx.pkt)
		}
	}
}

// Tick processes credits, ejects arrivals, and injects at most one flit.
// An NI with no visible credit or flit and nothing queued or mid-
// injection returns at once: every step below would be a no-op.
func (ni *NI) Tick(now int64) {
	if !ni.credIn.Ready(now) && !ni.recvFlit.Ready(now) && !ni.Busy() {
		return
	}
	ni.credIn.Drain(now, func(s router.Signal) {
		if s.IsCredit {
			ni.out.Return(s.VC)
		}
	})

	ni.recvFlit.Drain(now, func(f *noc.Flit) {
		ni.eject(f, now)
	})

	ni.inject(now)
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
			ni.Trace.Addf(now, nlog.KPacket, ni.ID, "delivered pkt%d %d->%d lat=%d", p.ID, p.Src, p.Dst, p.TotalLatency()) //flovlint:allow hotalloc -- opt-in delivery tracing
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
		if ni.sending[v] != nil || len(ni.queues[v]) == 0 {
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
		ni.sending[v] = &txState{pkt: pkt, flits: noc.MakePacketFlits(pkt), vc: vc}
	}

	// Send one flit, round-robin across vnets with active transmissions.
	for i := 0; i < vnets; i++ {
		v := (ni.vnetRR + i) % vnets
		tx := ni.sending[v]
		if tx == nil || ni.out.Credits[tx.vc] <= 0 {
			continue
		}
		f := tx.flits[tx.next]
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
			ni.sending[v] = nil
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
