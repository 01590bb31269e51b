// Package noc defines the primitive on-chip-network data types shared by
// every mechanism in the simulator: packets, flits, credits, virtual
// channel state machines and per-VC input buffers.
package noc

import "fmt"

// FlitType classifies a flit's position inside its packet.
type FlitType uint8

// Flit types. A single-flit packet is HeadTail.
const (
	Head FlitType = iota
	Body
	Tail
	HeadTail
)

// String returns a one-letter name (H, B, T, S for single-flit).
func (t FlitType) String() string {
	switch t {
	case Head:
		return "H"
	case Body:
		return "B"
	case Tail:
		return "T"
	case HeadTail:
		return "S"
	default:
		return fmt.Sprintf("FlitType(%d)", int(t))
	}
}

// IsHead reports whether the flit carries routing information.
func (t FlitType) IsHead() bool { return t == Head || t == HeadTail }

// IsTail reports whether the flit closes its packet (releases VCs).
func (t FlitType) IsTail() bool { return t == Tail || t == HeadTail }

// Packet is the unit of end-to-end communication. Flits of one packet
// share a pointer to it; latency accounting accumulates here.
type Packet struct {
	ID   uint64
	Src  int // source node id
	Dst  int // destination node id
	VNet int // virtual network
	Size int // number of flits

	// Timestamps (cycles).
	CreatedAt  int64 // enqueued at the source NI queue
	InjectedAt int64 // head flit entered the source router
	EjectedAt  int64 // tail flit consumed at the destination NI

	// Path accounting for the Fig. 8 latency breakdown.
	ActiveHops int  // powered-on routers traversed (full 3-stage pipeline)
	FLOVHops   int  // power-gated routers traversed via FLOV latches
	LinkHops   int  // physical link traversals
	Escape     bool // packet entered the escape subnetwork

	// Watermark for reply generation in the closed-loop driver.
	ReplyTo uint64 // request packet id this packet answers, 0 if none
	Kind    uint8  // workload-defined tag (request/reply/data...)
}

// TotalLatency returns end-to-end latency including source queuing.
func (p *Packet) TotalLatency() int64 { return p.EjectedAt - p.CreatedAt }

// NetworkLatency returns latency from injection into the source router to
// ejection (excludes source queuing).
func (p *Packet) NetworkLatency() int64 { return p.EjectedAt - p.InjectedAt }

// Flit is the unit of flow control. Flits are created once at injection
// and mutated in place as they traverse the network (the VC field tracks
// the downstream VC the flit currently occupies/targets).
type Flit struct {
	Pkt  *Packet
	Type FlitType
	Seq  int // position within the packet, 0-based
	VC   int // VC index in the *downstream* input buffer this flit is headed to
}

// String renders a compact debug representation.
func (f *Flit) String() string {
	return fmt.Sprintf("pkt%d/%s%d vc%d %d->%d", f.Pkt.ID, f.Type, f.Seq, f.VC, f.Pkt.Src, f.Pkt.Dst)
}

// MakePacketFlits builds the flit train for a packet as one slab: the
// flits live in a single backing array, and a flit in the network is a
// pointer into it (&flits[i]).
func MakePacketFlits(p *Packet) []Flit {
	flits := make([]Flit, p.Size) //flovlint:allow hotalloc -- one slab per packet, by design: allocation and GC are under 3% of saturation CPU, and a free-list pool could recycle a packet still referenced by a delivery callback or trace
	for i := range flits {
		t := Body
		switch {
		case p.Size == 1:
			t = HeadTail
		case i == 0:
			t = Head
		case i == p.Size-1:
			t = Tail
		}
		flits[i] = Flit{Pkt: p, Type: t, Seq: i}
	}
	return flits
}
