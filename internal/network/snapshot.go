package network

import (
	"fmt"

	"flov/internal/fault"
	"flov/internal/noc"
	"flov/internal/power"
	"flov/internal/router"
	"flov/internal/stats"
)

// TxSnap is the serializable form of one NI's in-flight packet
// serialization. The flit train is rebuilt from the packet (flits with
// index < Next have already been handed to the router and are captured
// at their current site; the NI never touches them again).
type TxSnap struct {
	Present bool
	Pkt     int // packet table index
	Next    int
	VC      int
}

// NIState is the serializable mutable state of one NI.
type NIState struct {
	Queues  [][]int // per-vnet source queues, as packet table indices
	Sending []TxSnap
	Out     noc.OutputVCSnap
	VnetRR  int
}

// CaptureState copies the NI's mutable state.
func (ni *NI) CaptureState(t *noc.PacketTable) NIState {
	s := NIState{Out: ni.out.CaptureState(), VnetRR: ni.vnetRR}
	for _, q := range ni.queues {
		refs := make([]int, 0, len(q))
		for _, p := range q {
			refs = append(refs, t.Ref(p))
		}
		s.Queues = append(s.Queues, refs)
	}
	for _, tx := range ni.sending {
		if tx.pkt == nil {
			s.Sending = append(s.Sending, TxSnap{})
			continue
		}
		s.Sending = append(s.Sending, TxSnap{Present: true, Pkt: t.Ref(tx.pkt), Next: tx.next, VC: tx.vc})
	}
	return s
}

// maxTrainFlits bounds the packet size a restored injection train may
// claim: a longer one is corruption, and rebuilding it would allocate
// without limit.
const maxTrainFlits = 1 << 16

// RestoreState overwrites the NI's mutable state. In-flight flit trains
// are rebuilt from the packet; flits already injected (index < next)
// live in router buffers or on links and are restored there, so the
// rebuilt slots below next are never read again.
func (ni *NI) RestoreState(s NIState, pkts []*noc.Packet) error {
	if len(s.Queues) != len(ni.queues) || len(s.Sending) != len(ni.sending) {
		return fmt.Errorf("ni %d: snapshot has %d vnets, NI has %d", ni.ID, len(s.Queues), len(ni.queues))
	}
	if len(s.Out.Credits) != len(ni.out.Credits) {
		return fmt.Errorf("ni %d: snapshot has %d VCs, NI has %d", ni.ID, len(s.Out.Credits), len(ni.out.Credits))
	}
	for v, tx := range s.Sending {
		if !tx.Present {
			continue
		}
		// The train is rebuilt as one slab of pkt.Size flits, cut at a
		// flit boundary, on a VC the NI has.
		pkt := pkts[tx.Pkt]
		if pkt.Size < 1 || pkt.Size > maxTrainFlits || tx.Next < 0 || tx.Next > pkt.Size ||
			tx.VC < 0 || tx.VC >= len(ni.out.Credits) {
			return fmt.Errorf("ni %d vnet %d: snapshot train of packet size %d at flit %d on vc %d is invalid",
				ni.ID, v, pkt.Size, tx.Next, tx.VC)
		}
	}
	for v := range ni.queues {
		ni.queues[v] = ni.queues[v][:0]
		for _, ref := range s.Queues[v] {
			ni.queues[v] = append(ni.queues[v], pkts[ref])
		}
	}
	for v := range ni.sending {
		tx := s.Sending[v]
		if !tx.Present {
			ni.sending[v] = txState{}
			continue
		}
		pkt := pkts[tx.Pkt]
		st := txState{pkt: pkt, flits: noc.MakePacketFlits(pkt), next: tx.Next, vc: tx.VC}
		for i := range st.flits {
			st.flits[i].VC = tx.VC
		}
		ni.sending[v] = st
	}
	ni.out.RestoreState(s.Out)
	ni.vnetRR = s.VnetRR
	return nil
}

// State is the serializable mutable state of the whole Network: the
// cycle counter and generation bookkeeping, the RNG streams, the gating
// cursor, every router and NI, and the statistics/energy accumulators.
// Link pipelines are captured separately (package snapshot owns channel
// payload encoding because control messages are mechanism-typed).
type State struct {
	Now             int64
	NextPkt         uint64
	SchedIdx        int
	GenStop         int64
	EjectedAtWarmup int64
	RNG             uint64
	InjectorRNGs    []uint64
	GatedMask       []bool
	Routers         []router.State
	NIs             []NIState
	Stats           stats.CollectorState
	Ledger          power.LedgerState
	// Faults carries the injector state of fault-injection runs; FaultSpec
	// is the attached spec in canonical JSON so restoring into a network
	// with a different (or no) spec fails loudly.
	Faults    *fault.State `json:",omitempty"`
	FaultSpec string       `json:",omitempty"`
}

// CaptureState copies the network's mutable state, registering every
// live packet in t.
func (n *Network) CaptureState(t *noc.PacketTable) State {
	s := State{
		Now:             n.now,
		NextPkt:         n.nextPkt,
		SchedIdx:        n.schedIdx,
		GenStop:         n.genStop,
		EjectedAtWarmup: n.ejectedAtWarmup,
		RNG:             n.rng.State(),
		GatedMask:       append([]bool(nil), n.gatedMask...),
		Stats:           n.Stats.CaptureState(),
		Ledger:          n.Ledger.CaptureState(),
	}
	if n.Faults != nil {
		fs := n.Faults.CaptureState()
		s.Faults = &fs
		s.FaultSpec = n.faultSpecJSON
	}
	for _, inj := range n.injectors {
		s.InjectorRNGs = append(s.InjectorRNGs, inj.RNGState())
	}
	for _, r := range n.Routers {
		r.Settle(n.now)
		s.Routers = append(s.Routers, r.CaptureState(t))
	}
	for _, ni := range n.NIs {
		s.NIs = append(s.NIs, ni.CaptureState(t))
	}
	return s
}

// RestoreState overwrites the network's mutable state. The receiver must
// have been built from the same config, mechanism and workload shape
// (package snapshot verifies that before calling). Derived state that
// follows the gating mask (the generator's active list) is rebuilt here,
// and the wake calendar files every component for the restored cycle;
// mechanism-internal state is restored separately by its own section.
func (n *Network) RestoreState(s State, pkts []*noc.Packet) error {
	if len(s.Routers) != len(n.Routers) || len(s.NIs) != len(n.NIs) {
		return fmt.Errorf("network: snapshot has %d routers, network has %d", len(s.Routers), len(n.Routers))
	}
	if len(s.InjectorRNGs) != len(n.injectors) {
		return fmt.Errorf("network: snapshot has %d injectors, network has %d", len(s.InjectorRNGs), len(n.injectors))
	}
	if len(s.GatedMask) != n.Cfg.N() {
		return fmt.Errorf("network: snapshot gating mask covers %d nodes, config has %d", len(s.GatedMask), n.Cfg.N())
	}
	if (s.Faults != nil) != (n.Faults != nil) {
		return fmt.Errorf("network: snapshot fault state present=%v, network fault injector present=%v",
			s.Faults != nil, n.Faults != nil)
	}
	if n.Faults != nil && s.FaultSpec != n.faultSpecJSON {
		return fmt.Errorf("network: snapshot fault spec %q does not match attached spec %q", s.FaultSpec, n.faultSpecJSON)
	}
	for id, r := range n.Routers {
		if err := r.RestoreState(s.Routers[id], pkts); err != nil {
			return err
		}
		r.ResumeAt(s.Now)
	}
	for id, ni := range n.NIs {
		if err := ni.RestoreState(s.NIs[id], pkts); err != nil {
			return err
		}
	}
	n.now = s.Now
	n.nextPkt = s.NextPkt
	n.schedIdx = s.SchedIdx
	n.genStop = s.GenStop
	n.ejectedAtWarmup = s.EjectedAtWarmup
	n.rng.SetState(s.RNG)
	for i, inj := range n.injectors {
		inj.SetRNGState(s.InjectorRNGs[i])
	}
	n.gatedMask = append(n.gatedMask[:0], s.GatedMask...)
	if n.Gen != nil {
		n.Gen.SetActive(n.activeMask())
	}
	n.Stats.RestoreState(s.Stats)
	n.Ledger.RestoreState(s.Ledger)
	if n.Faults != nil {
		if err := n.Faults.RestoreState(*s.Faults); err != nil {
			return err
		}
		// Frozen is derived from the injector; router.State does not carry
		// it.
		for id, r := range n.Routers {
			r.SetFrozen(n.now, !n.Faults.RouterUp(id))
		}
	}
	n.cal.Reset(n.now)
	n.cal.FileAll(n.now)
	return nil
}
