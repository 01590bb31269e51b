package router

import (
	"fmt"

	"flov/internal/noc"
	"flov/internal/topology"
)

// State is the serializable mutable state of one Router: input VC
// pipelines and buffers, output credit/allocation vectors, the three
// round-robin pointers and the traversal counter. Hooks, channels and
// configuration are structural and rebuilt by the caller.
type State struct {
	In         [][]noc.InputVCState // [NumPorts][VCsTotal]
	Out        []noc.OutputVCSnap   // [NumPorts]
	VAPtr      []int                // [NumPorts]
	SAPtr      []int                // [NumPorts]
	InPtr      []int                // [NumPorts]
	Traversals int64
}

// CaptureState copies the router's mutable state, registering every
// buffered flit's packet in t.
func (r *Router) CaptureState(t *noc.PacketTable) State {
	s := State{Traversals: r.Traversals}
	for p := 0; p < int(topology.NumPorts); p++ {
		vcs := make([]noc.InputVCState, len(r.in[p]))
		for v := range r.in[p] {
			ivc := &r.in[p][v]
			vcs[v] = ivc.CaptureState(t)
		}
		s.In = append(s.In, vcs)
		s.Out = append(s.Out, r.out[p].CaptureState())
		s.VAPtr = append(s.VAPtr, r.vaPtr[p])
		s.SAPtr = append(s.SAPtr, r.saPtr[p])
		s.InPtr = append(s.InPtr, r.inPtr[p])
	}
	return s
}

// RestoreState overwrites the router's mutable state from a capture. The
// receiver must have been built from the same configuration (same port
// and VC counts); mismatches are reported, never partially applied.
func (r *Router) RestoreState(s State, pkts []*noc.Packet) error {
	np := int(topology.NumPorts)
	if len(s.In) != np || len(s.Out) != np ||
		len(s.VAPtr) != np || len(s.SAPtr) != np || len(s.InPtr) != np {
		return fmt.Errorf("router %d: snapshot has %d ports, router has %d", r.ID, len(s.In), np)
	}
	for p := 0; p < np; p++ {
		if len(s.In[p]) != len(r.in[p]) {
			return fmt.Errorf("router %d port %d: snapshot has %d VCs, router has %d",
				r.ID, p, len(s.In[p]), len(r.in[p]))
		}
		if len(s.Out[p].Credits) != len(r.out[p].Credits) {
			return fmt.Errorf("router %d port %d: snapshot has %d output VCs, router has %d",
				r.ID, p, len(s.Out[p].Credits), len(r.out[p].Credits))
		}
	}
	for p := 0; p < np; p++ {
		for v := range r.in[p] {
			ivc := &r.in[p][v]
			ivc.RestoreState(s.In[p][v], pkts)
		}
		r.out[p].RestoreState(s.Out[p])
		r.vaPtr[p] = s.VAPtr[p]
		r.saPtr[p] = s.SAPtr[p]
		r.inPtr[p] = s.InPtr[p]
	}
	r.Traversals = s.Traversals
	r.buffered = r.countBuffered()
	r.recountMasks()
	return nil
}
