package snapshot

import (
	"fmt"
	"io"

	"flov/internal/config"
	"flov/internal/core"
	"flov/internal/network"
	"flov/internal/noc"
	"flov/internal/router"
	"flov/internal/rp"
	"flov/internal/sim"
	"flov/internal/topology"
	"flov/internal/trace"
)

// Meta identifies what a snapshot was taken from: the full configuration
// plus the mechanism and workload shape. Restore refuses to apply a
// snapshot onto a network built differently.
type Meta struct {
	Cfg       config.Config
	Mechanism string
	HasGen    bool
	HasDriver bool
}

// QueuedFlit is one in-flight flit on a link pipeline.
type QueuedFlit struct {
	Ready int64
	F     noc.FlitState
}

// FlitQueueState is the contents of one flit Delay queue.
type FlitQueueState struct {
	Items []QueuedFlit
}

// QueuedSignal is one in-flight credit or control message. The payload
// is concretely a core.Msg: the simulator's only non-credit control
// traffic is the FLOV handshake protocol.
type QueuedSignal struct {
	Ready    int64
	IsCredit bool
	VC       int
	HasMsg   bool
	Msg      core.Msg
}

// CtrlQueueState is the contents of one control Delay queue.
type CtrlQueueState struct {
	Items []QueuedSignal
}

// channelState holds every link pipeline, in the canonical enumeration
// order (see eachFlitQueue/eachCtrlQueue).
type channelState struct {
	Flits []FlitQueueState
	Ctrls []CtrlQueueState
}

// State is the complete mutable state of one simulation: packets, the
// network proper, the link pipelines, mechanism protocol state and (for
// closed-loop runs) the trace driver.
type State struct {
	Meta    Meta
	Packets []noc.PacketState
	Net     network.State
	Chans   channelState
	FLOV    *core.State
	RP      *rp.State
	Driver  *trace.DriverState
}

// eachFlitQueue visits every flit Delay queue exactly once, in a fixed
// order: inter-router links by (router id, direction), then each node's
// injection and ejection channels. Capture and restore both use this
// enumeration, so queue identity is positional.
func eachFlitQueue(n *network.Network, fn func(q *sim.Delay[*noc.Flit])) {
	for id := 0; id < n.Cfg.N(); id++ {
		for d := topology.Direction(0); d < topology.NumLinkDirs; d++ {
			if n.Mesh.Neighbor(id, d) < 0 {
				continue
			}
			fn(n.Routers[id].Ports[d].OutFlit)
		}
	}
	for id := 0; id < n.Cfg.N(); id++ {
		fn(n.Routers[id].Ports[topology.Local].InFlit)
		fn(n.Routers[id].Ports[topology.Local].OutFlit)
	}
}

// eachCtrlQueue visits every control Delay queue exactly once, mirroring
// eachFlitQueue's order.
func eachCtrlQueue(n *network.Network, fn func(q *sim.Delay[router.Signal])) {
	for id := 0; id < n.Cfg.N(); id++ {
		for d := topology.Direction(0); d < topology.NumLinkDirs; d++ {
			if n.Mesh.Neighbor(id, d) < 0 {
				continue
			}
			fn(n.Routers[id].Ports[d].InCtrl)
		}
	}
	for id := 0; id < n.Cfg.N(); id++ {
		fn(n.Routers[id].Ports[topology.Local].OutCtrl)
		fn(n.Routers[id].Ports[topology.Local].InCtrl)
	}
}

// Capture assembles the full state of a live simulation. d may be nil
// for synthetic (open-loop) runs.
func Capture(n *network.Network, d *trace.Driver) (*State, error) {
	t := noc.NewPacketTable()
	st := &State{
		Meta: Meta{
			Cfg:       n.Cfg,
			Mechanism: n.Mech.Name(),
			HasGen:    n.Gen != nil,
			HasDriver: d != nil,
		},
		Net: n.CaptureState(t),
	}

	var chanErr error
	eachFlitQueue(n, func(q *sim.Delay[*noc.Flit]) {
		var fq FlitQueueState
		for _, it := range q.Queued() {
			fq.Items = append(fq.Items, QueuedFlit{Ready: it.Ready, F: noc.CaptureFlit(t, it.V)})
		}
		st.Chans.Flits = append(st.Chans.Flits, fq)
	})
	eachCtrlQueue(n, func(q *sim.Delay[router.Signal]) {
		var cq CtrlQueueState
		for _, it := range q.Queued() {
			qs := QueuedSignal{Ready: it.Ready, IsCredit: it.V.IsCredit, VC: it.V.VC}
			if it.V.Msg != nil {
				m, ok := it.V.Msg.(core.Msg)
				if !ok {
					chanErr = fmt.Errorf("snapshot: control queue carries unsupported payload %T", it.V.Msg)
					return
				}
				qs.HasMsg = true
				qs.Msg = m
				qs.Msg.Counts = append([]int(nil), m.Counts...)
			}
			cq.Items = append(cq.Items, qs)
		}
		st.Chans.Ctrls = append(st.Chans.Ctrls, cq)
	})
	if chanErr != nil {
		return nil, chanErr
	}

	switch mech := n.Mech.(type) {
	case *core.Mechanism:
		fs := mech.CaptureState(t)
		st.FLOV = &fs
	case *rp.Mechanism:
		rs := mech.CaptureState()
		st.RP = &rs
	case *network.BaselineMech:
		// No mechanism state.
	default:
		return nil, fmt.Errorf("snapshot: unsupported mechanism %T", n.Mech)
	}

	if d != nil {
		ds := d.CaptureState()
		st.Driver = &ds
	}

	// The packet table is complete only after every site has been walked.
	for _, p := range t.List {
		st.Packets = append(st.Packets, noc.CapturePacket(p))
	}
	return st, nil
}

// Save captures the simulation and writes the snapshot container to w.
// d may be nil for synthetic runs.
func Save(w io.Writer, n *network.Network, d *trace.Driver) error {
	st, err := Capture(n, d)
	if err != nil {
		return err
	}
	secs := []section{}
	add := func(name string, v any) {
		if err != nil {
			return
		}
		var payload []byte
		payload, err = encode(v)
		secs = append(secs, section{name: name, payload: payload})
	}
	add("meta", st.Meta)
	add("packets", st.Packets)
	add("net", st.Net)
	add("chans", st.Chans)
	if st.FLOV != nil {
		add("flov", *st.FLOV)
	}
	if st.RP != nil {
		add("rp", *st.RP)
	}
	if st.Driver != nil {
		add("driver", *st.Driver)
	}
	if err != nil {
		return err
	}
	return writeContainer(w, secs)
}

// Load reads and decodes a snapshot container without applying it.
func Load(r io.Reader) (*State, error) {
	sections, err := readContainer(r)
	if err != nil {
		return nil, err
	}
	st := &State{}
	need := func(name string, out any) error {
		payload, ok := sections[name]
		if !ok {
			return fmt.Errorf("%w: missing required section %q", ErrCorrupt, name)
		}
		if err := decode(payload, out); err != nil {
			return fmt.Errorf("%w: section %q: %v", ErrCorrupt, name, err)
		}
		return nil
	}
	if err := need("meta", &st.Meta); err != nil {
		return nil, err
	}
	if err := need("packets", &st.Packets); err != nil {
		return nil, err
	}
	if err := need("net", &st.Net); err != nil {
		return nil, err
	}
	if err := need("chans", &st.Chans); err != nil {
		return nil, err
	}
	if payload, ok := sections["flov"]; ok {
		st.FLOV = &core.State{}
		if err := decode(payload, st.FLOV); err != nil {
			return nil, fmt.Errorf("%w: section %q: %v", ErrCorrupt, "flov", err)
		}
	}
	if payload, ok := sections["rp"]; ok {
		st.RP = &rp.State{}
		if err := decode(payload, st.RP); err != nil {
			return nil, fmt.Errorf("%w: section %q: %v", ErrCorrupt, "rp", err)
		}
	}
	if payload, ok := sections["driver"]; ok {
		st.Driver = &trace.DriverState{}
		if err := decode(payload, st.Driver); err != nil {
			return nil, fmt.Errorf("%w: section %q: %v", ErrCorrupt, "driver", err)
		}
	}
	return st, nil
}

// validateRefs checks every packet-table index in the state before any
// of it is applied, so a malformed snapshot can never index out of
// range mid-restore. It also checks that no input VC holds more than
// depth flits: the credit protocol never lets a VC hold more, and
// InputVC.Push would panic on it mid-restore.
func (st *State) validateRefs(depth int) error {
	np := len(st.Packets)
	check := func(site string, idx int) error {
		if idx < 0 || idx >= np {
			return fmt.Errorf("%w: %s references packet %d of %d", ErrCorrupt, site, idx, np)
		}
		return nil
	}
	for ri, r := range st.Net.Routers {
		for p, vcs := range r.In {
			for v, vc := range vcs {
				if len(vc.Flits) != len(vc.Arrived) {
					return fmt.Errorf("%w: router %d port %d vc %d: %d flits but %d arrival stamps",
						ErrCorrupt, ri, p, v, len(vc.Flits), len(vc.Arrived))
				}
				if len(vc.Flits) > depth {
					return fmt.Errorf("%w: router %d port %d vc %d holds %d flits, buffer depth %d",
						ErrCorrupt, ri, p, v, len(vc.Flits), depth)
				}
				for _, f := range vc.Flits {
					if err := check(fmt.Sprintf("router %d input buffer", ri), f.Pkt); err != nil {
						return err
					}
				}
			}
		}
	}
	for ni, s := range st.Net.NIs {
		for _, q := range s.Queues {
			for _, ref := range q {
				if err := check(fmt.Sprintf("ni %d source queue", ni), ref); err != nil {
					return err
				}
			}
		}
		for _, tx := range s.Sending {
			if tx.Present {
				if err := check(fmt.Sprintf("ni %d in-flight train", ni), tx.Pkt); err != nil {
					return err
				}
			}
		}
	}
	for qi, fq := range st.Chans.Flits {
		for _, it := range fq.Items {
			if err := check(fmt.Sprintf("flit queue %d", qi), it.F.Pkt); err != nil {
				return err
			}
		}
	}
	if st.FLOV != nil {
		for ri, r := range st.FLOV.Routers {
			for _, f := range r.Latch {
				if err := check(fmt.Sprintf("flov router %d latch", ri), f.Pkt); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// countQueues returns how many flit and control queues the network has
// under the canonical enumeration.
func countQueues(n *network.Network) (flits, ctrls int) {
	links := 0
	for id := 0; id < n.Cfg.N(); id++ {
		for d := topology.Direction(0); d < topology.NumLinkDirs; d++ {
			if n.Mesh.Neighbor(id, d) >= 0 {
				links++
			}
		}
	}
	return links + 2*n.Cfg.N(), links + 2*n.Cfg.N()
}

// apply overlays a validated state onto a freshly built simulation.
func (st *State) apply(n *network.Network, d *trace.Driver) error {
	if err := st.validateRefs(n.Cfg.BufferDepth); err != nil {
		return err
	}
	wantFlits, wantCtrls := countQueues(n)
	if len(st.Chans.Flits) != wantFlits || len(st.Chans.Ctrls) != wantCtrls {
		return fmt.Errorf("%w: snapshot has %d flit / %d ctrl queues, network has %d / %d",
			ErrCorrupt, len(st.Chans.Flits), len(st.Chans.Ctrls), wantFlits, wantCtrls)
	}

	pkts := make([]*noc.Packet, len(st.Packets))
	for i, ps := range st.Packets {
		pkts[i] = ps.Materialize()
	}

	if err := n.RestoreState(st.Net, pkts); err != nil {
		return err
	}

	qi := 0
	eachFlitQueue(n, func(q *sim.Delay[*noc.Flit]) {
		items := make([]sim.Queued[*noc.Flit], 0, len(st.Chans.Flits[qi].Items))
		for _, it := range st.Chans.Flits[qi].Items {
			items = append(items, sim.Queued[*noc.Flit]{Ready: it.Ready, V: it.F.Materialize(pkts)})
		}
		q.SetQueued(items)
		qi++
	})
	qi = 0
	eachCtrlQueue(n, func(q *sim.Delay[router.Signal]) {
		items := make([]sim.Queued[router.Signal], 0, len(st.Chans.Ctrls[qi].Items))
		for _, it := range st.Chans.Ctrls[qi].Items {
			sig := router.Signal{IsCredit: it.IsCredit, VC: it.VC}
			if it.HasMsg {
				sig.Msg = it.Msg
			}
			items = append(items, sim.Queued[router.Signal]{Ready: it.Ready, V: sig})
		}
		q.SetQueued(items)
		qi++
	})

	switch mech := n.Mech.(type) {
	case *core.Mechanism:
		if st.FLOV == nil {
			return fmt.Errorf("%w: FLOV network but snapshot has no flov section", ErrCorrupt)
		}
		if err := mech.RestoreState(*st.FLOV, pkts); err != nil {
			return err
		}
	case *rp.Mechanism:
		if st.RP == nil {
			return fmt.Errorf("%w: RP network but snapshot has no rp section", ErrCorrupt)
		}
		if err := mech.RestoreState(*st.RP); err != nil {
			return err
		}
	case *network.BaselineMech:
		// No mechanism state.
	default:
		return fmt.Errorf("snapshot: unsupported mechanism %T", n.Mech)
	}

	if d != nil {
		if st.Driver == nil {
			return fmt.Errorf("%w: closed-loop run but snapshot has no driver section", ErrCorrupt)
		}
		if err := d.RestoreState(*st.Driver); err != nil {
			return err
		}
	}
	return nil
}

// validateMeta rejects a snapshot taken from a differently built
// simulation.
func (st *State) validateMeta(n *network.Network, d *trace.Driver) error {
	if st.Meta.Cfg != n.Cfg {
		return fmt.Errorf("snapshot: configuration mismatch: snapshot taken from %+v, restoring onto %+v", st.Meta.Cfg, n.Cfg)
	}
	if st.Meta.Mechanism != n.Mech.Name() {
		return fmt.Errorf("snapshot: mechanism mismatch: snapshot is %q, network is %q", st.Meta.Mechanism, n.Mech.Name())
	}
	if st.Meta.HasGen != (n.Gen != nil) {
		return fmt.Errorf("snapshot: workload mismatch: snapshot HasGen=%v, network=%v", st.Meta.HasGen, n.Gen != nil)
	}
	if st.Meta.HasDriver != (d != nil) {
		return fmt.Errorf("snapshot: workload mismatch: snapshot HasDriver=%v, restore given driver=%v", st.Meta.HasDriver, d != nil)
	}
	return nil
}

// Restore reads a snapshot from r and applies it to a freshly built
// simulation with the same configuration, mechanism and workload. d must
// be non-nil exactly when the snapshot was taken from a closed-loop run.
// On any error the snapshot is rejected with a diagnostic; the network
// must then be considered unusable (rebuild it) since a late failure may
// have partially applied state.
func Restore(r io.Reader, n *network.Network, d *trace.Driver) error {
	st, err := Load(r)
	if err != nil {
		return err
	}
	if err := st.validateMeta(n, d); err != nil {
		return err
	}
	return st.apply(n, d)
}
