package noc

import "flov/internal/topology"

// This file holds the serializable state forms of the package's types,
// used by the checkpoint subsystem (internal/snapshot). Flits of one
// packet share a *Packet, so packet identity is preserved across a
// save/restore by registering every live packet in a PacketTable and
// encoding flits as (packet index, type, seq, vc).

// PacketState is the serializable form of a Packet (plain data, no
// pointers).
type PacketState struct {
	ID         uint64
	Src        int
	Dst        int
	VNet       int
	Size       int
	CreatedAt  int64
	InjectedAt int64
	EjectedAt  int64
	ActiveHops int
	FLOVHops   int
	LinkHops   int
	Escape     bool
	ReplyTo    uint64
	Kind       uint8
}

// CapturePacket copies a live packet into its serializable form.
func CapturePacket(p *Packet) PacketState {
	return PacketState{
		ID: p.ID, Src: p.Src, Dst: p.Dst, VNet: p.VNet, Size: p.Size,
		CreatedAt: p.CreatedAt, InjectedAt: p.InjectedAt, EjectedAt: p.EjectedAt,
		ActiveHops: p.ActiveHops, FLOVHops: p.FLOVHops, LinkHops: p.LinkHops,
		Escape: p.Escape, ReplyTo: p.ReplyTo, Kind: p.Kind,
	}
}

// Materialize rebuilds a live packet from its serializable form.
func (s PacketState) Materialize() *Packet {
	return &Packet{
		ID: s.ID, Src: s.Src, Dst: s.Dst, VNet: s.VNet, Size: s.Size,
		CreatedAt: s.CreatedAt, InjectedAt: s.InjectedAt, EjectedAt: s.EjectedAt,
		ActiveHops: s.ActiveHops, FLOVHops: s.FLOVHops, LinkHops: s.LinkHops,
		Escape: s.Escape, ReplyTo: s.ReplyTo, Kind: s.Kind,
	}
}

// PacketTable assigns dense indices to the unique live packets reached
// during a state capture, in first-seen order. The traversal order is
// deterministic (the capture walks routers, NIs and links in id order),
// so two captures of identical networks yield identical tables.
type PacketTable struct {
	idx  map[*Packet]int
	List []*Packet
}

// NewPacketTable returns an empty table.
func NewPacketTable() *PacketTable {
	return &PacketTable{idx: make(map[*Packet]int)}
}

// Ref returns the packet's index, registering it on first sight.
func (t *PacketTable) Ref(p *Packet) int {
	if i, ok := t.idx[p]; ok {
		return i
	}
	i := len(t.List)
	t.idx[p] = i
	t.List = append(t.List, p)
	return i
}

// FlitState is the serializable form of a Flit: the packet is a table
// index, everything else is copied.
type FlitState struct {
	Pkt  int
	Type FlitType
	Seq  int
	VC   int
}

// CaptureFlit registers the flit's packet and returns the flit's
// serializable form.
func CaptureFlit(t *PacketTable, f *Flit) FlitState {
	return FlitState{Pkt: t.Ref(f.Pkt), Type: f.Type, Seq: f.Seq, VC: f.VC}
}

// Materialize rebuilds a live flit against the restored packet list.
// Each captured flit site materializes its own *Flit: a live flit
// pointer occupies exactly one buffer or queue slot at a time, so
// flit-pointer identity never spans sites.
func (s FlitState) Materialize(pkts []*Packet) *Flit {
	return &Flit{Pkt: pkts[s.Pkt], Type: s.Type, Seq: s.Seq, VC: s.VC}
}

// InputVCState is the serializable form of an InputVC: pipeline state,
// route/allocation results and the buffered flits with their arrival
// cycles. Index and capacity are structural (rebuilt from config).
type InputVCState struct {
	State     VCState
	OutDir    topology.Direction
	OutVC     int
	RCCycle   int64
	VACycle   int64
	WaitSince int64
	Flits     []FlitState
	Arrived   []int64
}

// CaptureState copies the VC's mutable state.
func (v *InputVC) CaptureState(t *PacketTable) InputVCState {
	s := InputVCState{
		State: v.State, OutDir: v.OutDir, OutVC: v.OutVC,
		RCCycle: v.RCCycle, VACycle: v.VACycle, WaitSince: v.WaitSince,
	}
	for i := 0; i < v.buf.Len(); i++ {
		e := v.buf.At(i)
		s.Flits = append(s.Flits, CaptureFlit(t, e.flit))
		s.Arrived = append(s.Arrived, e.arrived)
	}
	return s
}

// RestoreState overwrites the VC's mutable state from a capture. Index
// and capacity are kept (the receiver was built from the same config).
// The capture must hold at most Capacity flits; the snapshot decoder
// rejects one that holds more.
func (v *InputVC) RestoreState(s InputVCState, pkts []*Packet) {
	v.State = s.State
	v.OutDir = s.OutDir
	v.OutVC = s.OutVC
	v.RCCycle = s.RCCycle
	v.VACycle = s.VACycle
	v.WaitSince = s.WaitSince
	v.buf.Clear()
	for i, fs := range s.Flits {
		v.Push(fs.Materialize(pkts), s.Arrived[i])
	}
}

// OutputVCSnap is the serializable form of an OutputVCState (the depth
// is structural).
type OutputVCSnap struct {
	Credits   []int
	Allocated []bool
}

// CaptureState copies the credit and allocation vectors.
func (o *OutputVCState) CaptureState() OutputVCSnap {
	return OutputVCSnap{
		Credits:   append([]int(nil), o.Credits...),
		Allocated: append([]bool(nil), o.Allocated...),
	}
}

// RestoreState overwrites the credit and allocation vectors.
func (o *OutputVCState) RestoreState(s OutputVCSnap) {
	copy(o.Credits, s.Credits)
	copy(o.Allocated, s.Allocated)
}
