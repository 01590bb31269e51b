// Package router implements the baseline 3-stage virtual-channel router
// (Peh & Dally style) that all four mechanisms build on: per-VC input
// buffers, route computation, separable VC and switch allocation with
// round-robin priorities, switch traversal, and credit-based flow control.
//
// The router is mechanism-agnostic. Power-gating schemes customize it
// through four hooks: RouteFn (routing policy), AllocOK (handshake gating
// of new packet allocations per output), WakeReq (destination-gated wakeup
// trigger) and OnCtrl (non-credit control messages). Package core wraps it
// into a FLOV router; package rp drives it from the fabric manager.
package router

import (
	"fmt"
	"math/bits"

	"flov/internal/assert"
	"flov/internal/config"
	"flov/internal/noc"
	"flov/internal/power"
	"flov/internal/routing"
	"flov/internal/sim"
	"flov/internal/topology"
)

// TraceCredit, when non-nil, observes every credit consume/return and
// every bulk counter rewrite on every router (kind is one of "return",
// "consume", "copy", "full", "zero", "drop"). Intended for protocol
// debugging and invariant checks in tests; nil in normal runs.
var TraceCredit func(routerID int, port topology.Direction, vc int, count int, kind string)

// Signal is the unit carried by control channels: either a credit return
// for the paired flit channel, or a mechanism-defined control message.
type Signal struct {
	IsCredit bool
	VC       int // credit: freed VC index in the sender's input buffer
	Msg      any // control: mechanism-defined payload (nil for credits)
}

// CreditSignal builds a credit return for vc.
func CreditSignal(vc int) Signal { return Signal{IsCredit: true, VC: vc} }

// CtrlSignal builds a control-message signal.
func CtrlSignal(msg any) Signal { return Signal{Msg: msg} }

// FaultHook is the router's window onto an attached fault injector. The
// network installs one per router (capturing the router id); semantics
// live entirely on the network side so the router stays fault-agnostic.
type FaultHook interface {
	// FilterRoute post-processes a routing decision for a head flit that
	// has waited `waited` cycles since last progress; it may substitute a
	// reroute, NoRoute, or an Undeliverable classification.
	FilterRoute(inDir topology.Direction, pkt *noc.Packet, dec routing.Decision, waited int64) routing.Decision
	// LinkBlocked reports whether traversal onto output d is currently
	// forbidden (failed link, or permanently failed neighbor).
	LinkBlocked(d topology.Direction) bool
	// Recovering reports whether any fault has been injected so far,
	// enabling the VA-starvation escape heuristic. Must be false until
	// the first fault so fault-free runs stay byte-identical.
	Recovering() bool
	// StuckDrop reports whether a head flit wedged in VC allocation for
	// `waited` cycles should be dropped as undeliverable.
	StuckDrop(pkt *noc.Packet, waited int64) bool
}

// PortLink bundles the four directed channels of one router port. At mesh
// edges the non-existent neighbor's queues are nil. The Local port links
// the router to its network interface with the same machinery.
type PortLink struct {
	OutFlit *sim.Delay[*noc.Flit] // flits to the neighbor/NI
	InFlit  *sim.Delay[*noc.Flit] // flits from the neighbor/NI
	OutCtrl *sim.Delay[Signal]    // credits+control to the neighbor/NI
	InCtrl  *sim.Delay[Signal]    // credits+control from the neighbor/NI
}

// Connected reports whether this port has a neighbor attached.
func (p *PortLink) Connected() bool { return p.OutFlit != nil }

// Router is one baseline virtual-channel router.
type Router struct {
	ID    int
	Cfg   config.Config //flovsnap:skip immutable run configuration
	Mesh  topology.Mesh //flovsnap:skip immutable topology
	Ports [topology.NumPorts]PortLink

	// RouteFn computes the output port for a head flit that arrived on
	// inDir (topology.Local for injected packets). escape selects the
	// escape-subnetwork algorithm. Must be set before the first Tick.
	RouteFn func(inDir topology.Direction, escape bool, pkt *noc.Packet) routing.Decision //flovsnap:skip routing function installed at construction
	// AllocOK reports whether NEW packets may currently be allocated
	// toward outDir (handshake draining gates this). nil means always ok.
	AllocOK func(outDir topology.Direction) bool //flovsnap:skip wiring installed by the gating mechanism on Attach
	// WakeReq is invoked (possibly repeatedly) when a packet must wait
	// for gated destination target to wake. nil ignores.
	WakeReq func(target int) //flovsnap:skip wiring installed by the gating mechanism on Attach
	// OnCtrl receives non-credit control messages. nil drops them.
	OnCtrl func(from topology.Direction, msg any) //flovsnap:skip wiring installed by the gating mechanism on Attach
	// DropCredit, when non-nil and true for a port, discards incoming
	// credits on it. A freshly woken FLOV router uses this to ignore
	// credits that raced ahead of (and are already included in) the
	// pending MsgCreditSync snapshot.
	DropCredit func(from topology.Direction) bool //flovsnap:skip wiring installed by the gating mechanism on Attach

	// Faults, when non-nil, is the fault-injection subsystem's per-router
	// hook: it filters routing decisions, blocks switch traversal onto
	// failed links and enables the fault-recovery heuristics. While no
	// fault has been injected every method is a strict no-op.
	Faults FaultHook //flovsnap:skip wiring installed by AttachFaults
	// OnDrop observes packets the fault path drops (classified losses):
	// flits is how many buffered flits were discarded. nil ignores.
	OnDrop func(pkt *noc.Packet, flits int, now int64) //flovsnap:skip observer hook, not simulation state
	// frozen, when true, halts the whole pipeline: a faulted router
	// processes nothing until the fault heals. Links into it still queue
	// (bounded by credits). SetFrozen is its only writer.
	frozen bool

	Ledger *power.Ledger //flovsnap:skip wiring installed by network.New

	in  [topology.NumPorts][]noc.InputVC
	out [topology.NumPorts]*noc.OutputVCState

	// stMask[s][p] has bit v set exactly when in[p][v].State == s, so
	// each pipeline stage visits only the VCs in its state. Every state
	// change goes through setState or resetVC, which keep it in step.
	stMask [numVCStates][topology.NumPorts]uint64 //flovsnap:skip derived from the input VC states; RestoreState recounts it

	// occ[p] has bit v set exactly when in[p][v] holds a flit, so switch
	// allocation skips empty Active VCs. acceptFlit sets a bit; traverse
	// and dropFront clear it when they empty the VC.
	occ [topology.NumPorts]uint64 //flovsnap:skip derived from the input buffers; RestoreState recounts it

	vaPtr [topology.NumPorts]int
	saPtr [topology.NumPorts]int
	inPtr [topology.NumPorts]int

	// The input pointers advance once per cycle the pipeline runs, bid or
	// no bid, so a router the wake calendar skips owes them one step per
	// skipped cycle in which it was powered and not frozen. The step is
	// applied lazily: ptrFrom is the first cycle not yet credited, and
	// Settle credits the cycles before a given one. dark marks a pipeline
	// its mechanism has powered off (FLOV Sleep/Wakeup, a parked RP
	// router), whose skipped cycles owe nothing.
	ptrFrom int64 //flovsnap:skip settled into inPtr before every capture; ResumeAt restarts it on restore
	dark    bool  //flovsnap:skip mirrors the mechanism's power state, whose restore sets it

	// inbox has bit inCtrlBit(p) set exactly while port p's input
	// control queue holds an item, and bit inFlitBit(p) while its input
	// flit queue does. The queues keep it (WatchInputs), so the control
	// and receive passes visit only non-empty queues.
	inbox uint64 //flovsnap:skip kept by the input link queues, which restore sets

	// buffered counts the flits held in all input VCs, so an idle router
	// is recognized in O(1): acceptFlit increments it, traverse and
	// dropFront decrement it.
	buffered int //flovsnap:skip derived from the input buffers; RestoreState recounts it

	// Per-cycle scratch, reused so the VA stage allocates nothing in
	// steady state: the requesters of each output port. Contents are
	// only valid within one stage call.
	vaReqs [topology.NumPorts][]saRequest //flovsnap:skip scratch, valid only within one stage call

	// Traversals counts flits switched through this router's crossbar
	// (utilization heat maps).
	Traversals int64
}

// numVCStates is the number of noc.VCState values (Idle..Active).
const numVCStates = int(noc.VCActive) + 1

// maxVCs is the most VCs per port a router supports: one bit each in
// the per-port state masks.
const maxVCs = 64

// inCtrlBit and inFlitBit return the inbox bits of port p's input
// control and flit queues.
func inCtrlBit(p int) uint64 { return 1 << uint(p) }
func inFlitBit(p int) uint64 { return 1 << uint(8+p) }

// inCtrlBits and inFlitBits select all ports' control and flit bits.
const (
	inCtrlBits = 1<<topology.NumPorts - 1
	inFlitBits = inCtrlBits << 8
)

// rrIndex returns the slot round-robin pointer ptr selects among n
// candidates. The remainder is unsigned: it is cheaper than a signed
// one, and equal for every pointer a run reaches.
func rrIndex(ptr, n int) int { return int(uint(ptr) % uint(n)) }

// New builds a router with empty buffers and full credits on every
// connected output. Channels must be wired into Ports by the caller
// (package network) before the first Tick.
func New(id int, cfg config.Config, mesh topology.Mesh, ledger *power.Ledger) *Router {
	r := &Router{ID: id, Cfg: cfg, Mesh: mesh, Ledger: ledger}
	vcs := cfg.VCsTotal()
	if vcs > maxVCs {
		panic(fmt.Sprintf("router %d: %d VCs per port, at most %d supported", id, vcs, maxVCs))
	}
	all := make([]noc.InputVC, int(topology.NumPorts)*vcs) // one block: a port's VCs sit next to the next port's
	for p := 0; p < int(topology.NumPorts); p++ {
		r.in[p] = all[p*vcs : (p+1)*vcs : (p+1)*vcs]
		for v := range r.in[p] {
			r.in[p][v].Init(v, cfg.BufferDepth)
		}
		r.out[p] = noc.NewOutputVCState(vcs, cfg.BufferDepth, true)
	}
	r.recountMasks()
	return r
}

// WatchInputs has the router's input queues keep its inbox mask, so a
// tick polls only the queues that hold something. Call it once the
// ports are wired, before the first Tick.
func (r *Router) WatchInputs() {
	for p := range r.Ports {
		if q := r.Ports[p].InCtrl; q != nil {
			q.SetMark(&r.inbox, inCtrlBit(p))
		}
		if q := r.Ports[p].InFlit; q != nil {
			q.SetMark(&r.inbox, inFlitBit(p))
		}
	}
}

// setState moves input VC ivc of port p to state s, keeping the state
// masks in step. It is the only writer of InputVC.State besides resetVC
// and snapshot restore.
func (r *Router) setState(p topology.Direction, ivc *noc.InputVC, s noc.VCState) {
	bit := uint64(1) << uint(ivc.Index)
	r.stMask[ivc.State][p] &^= bit
	r.stMask[s][p] |= bit
	ivc.State = s
}

// resetVC returns an emptied input VC of port p to Idle and clears its
// route and allocation state.
func (r *Router) resetVC(p topology.Direction, ivc *noc.InputVC) {
	r.setState(p, ivc, noc.VCIdle)
	ivc.Reset()
}

// SetVCState puts input VC vc of port d into state s. Tests use it to
// stage pipeline states; the router's own stages change state
// internally.
func (r *Router) SetVCState(d topology.Direction, vc int, s noc.VCState) {
	r.setState(d, &r.in[d][vc], s)
}

// stateMasks rebuilds the state masks from the input VC states.
func (r *Router) stateMasks() [numVCStates][topology.NumPorts]uint64 {
	var m [numVCStates][topology.NumPorts]uint64
	for p := range r.in {
		for v := range r.in[p] {
			m[r.in[p][v].State][p] |= 1 << uint(v)
		}
	}
	return m
}

// occupancy rebuilds the occupancy masks from the input buffers.
func (r *Router) occupancy() [topology.NumPorts]uint64 {
	var m [topology.NumPorts]uint64
	for p := range r.in {
		for v := range r.in[p] {
			if !r.in[p][v].Empty() {
				m[p] |= 1 << uint(v)
			}
		}
	}
	return m
}

// recountMasks resets the state and occupancy masks from the input VCs
// (after construction and snapshot restore).
func (r *Router) recountMasks() {
	r.stMask = r.stateMasks()
	r.occ = r.occupancy()
}

// Out returns the output credit state for a port (used by power-gating
// wrappers for credit sync).
func (r *Router) Out(d topology.Direction) *noc.OutputVCState { return r.out[d] }

// InVC returns one input VC (exposed for tests and drain checks).
func (r *Router) InVC(d topology.Direction, vc int) *noc.InputVC { return &r.in[d][vc] }

// Tick advances the router one cycle: control processing, flit receive,
// then the RC, VA and SA/ST pipeline stages. It first credits the input
// pointers with the cycles the router was skipped. A frozen (faulted)
// router does nothing else — its state is preserved until the fault
// heals.
func (r *Router) Tick(now int64) {
	if now > r.ptrFrom {
		r.Settle(now)
	}
	r.ptrFrom = now + 1 // this cycle's step is the pipeline's own
	if r.frozen {
		return
	}
	if assert.On {
		r.assertKernelState(now)
	}
	r.processCtrl(now)
	r.receive(now)
	r.stageRC(now)
	r.stageVA(now)
	r.stageSA(now)
}

// Settle credits the input pointers with one step for every cycle
// before now not yet credited, unless the pipeline was dark or frozen
// through them, so they read as if the router had been ticked on each.
// Capture settles first.
func (r *Router) Settle(now int64) {
	if now <= r.ptrFrom {
		return
	}
	if !r.dark && !r.frozen {
		step := int(now - r.ptrFrom)
		for p := range r.inPtr {
			r.inPtr[p] += step
		}
	}
	r.ptrFrom = now
}

// ResumeAt restarts the lazy pointer accounting at cycle now with
// nothing owed: the restored pointers are already settled.
func (r *Router) ResumeAt(now int64) { r.ptrFrom = now }

// SetDark powers the pipeline off (dark) or on from cycle from: the
// cycles before it are credited under the old setting.
func (r *Router) SetDark(from int64, dark bool) {
	r.Settle(from)
	r.dark = dark
}

// Frozen reports whether a fault has halted the router.
func (r *Router) Frozen() bool { return r.frozen }

// SetFrozen halts (or resumes) the router from cycle now.
func (r *Router) SetFrozen(now int64, frozen bool) {
	r.Settle(now)
	r.frozen = frozen
}

// Due returns the earliest cycle from now on at which a tick can do more
// than step the input pointers: now while a flit is buffered (RC, VA and
// SA have requesters), otherwise the first cycle a credit, control
// message or flit becomes visible on an input. A router with nothing
// queued, or a frozen one, is never due: new input files it again, and
// the fault change that thaws it files every component.
func (r *Router) Due(now int64) int64 {
	if r.frozen {
		return sim.Never
	}
	if r.buffered != 0 {
		return now
	}
	return max(r.NextArrival(true), now)
}

// NextArrival returns the first cycle an item becomes visible on any
// input queue, or sim.Never. localCtrl selects whether the Local
// control queue counts: a power-gated FLOV router leaves it untouched.
func (r *Router) NextArrival(localCtrl bool) int64 {
	t := sim.Never
	m := r.inbox
	if !localCtrl {
		m &^= inCtrlBit(int(topology.Local))
	}
	for c := m & inCtrlBits; c != 0; c &= c - 1 {
		t = min(t, r.Ports[bits.TrailingZeros64(c)].InCtrl.NextReady())
	}
	for f := m & inFlitBits; f != 0; f &= f - 1 {
		t = min(t, r.Ports[bits.TrailingZeros64(f)-8].InFlit.NextReady())
	}
	return t
}

// SkipProbe is a router's state before a tick the wake calendar
// skipped, taken by ProbeSkip and checked by CheckSkip.
type SkipProbe struct {
	digest  assert.Digest
	queues  [topology.NumPorts][4]int
	inPtr   [topology.NumPorts]int
	ptrFrom int64
	owes    bool
}

// ProbeSkip records the router's state before a full tick at a cycle
// the calendar skipped (flovdebug cross-check).
func (r *Router) ProbeSkip() SkipProbe {
	if n := r.countBuffered(); n != r.buffered {
		assert.Failf("router %d: buffered counter %d, recount %d", r.ID, r.buffered, n)
	}
	return SkipProbe{
		digest:  r.stateDigest(),
		queues:  r.LinkQueueLens(),
		inPtr:   r.inPtr,
		ptrFrom: r.ptrFrom,
		owes:    !r.dark && !r.frozen,
	}
}

// CheckSkip fails unless the full tick run at now since ProbeSkip
// changed nothing beyond the input pointers, and moved those by exactly
// the steps the lazy accounting owes through now. It then puts the
// pointers and their accounting back, so the skip stays lazy.
func (r *Router) CheckSkip(p SkipProbe, now int64) {
	if r.stateDigest() != p.digest {
		assert.Failf("router %d: skipped tick at cycle %d changed state beyond the input pointers", r.ID, now)
	}
	if got := r.LinkQueueLens(); got != p.queues {
		assert.Failf("router %d: skipped tick at cycle %d moved link queues %v -> %v", r.ID, now, p.queues, got)
	}
	want := p.inPtr
	if p.owes {
		for i := range want {
			want[i] += int(now + 1 - p.ptrFrom)
		}
	}
	if r.inPtr != want {
		assert.Failf("router %d: skipped tick at cycle %d left input pointers %v, lazy accounting owes %v", r.ID, now, r.inPtr, want)
	}
	r.inPtr, r.ptrFrom = p.inPtr, p.ptrFrom
}

// assertKernelState (flovdebug builds) checks the derived kernel
// structures against what they summarize: the state and occupancy masks
// against a recount of the input VCs, the inbox against the input link
// queues, and every input VC buffer and input link queue against its
// own ring bookkeeping.
func (r *Router) assertKernelState(now int64) {
	if m := r.stateMasks(); m != r.stMask {
		assert.Failf("router %d: VC state masks %v, recount %v at cycle %d", r.ID, r.stMask, m, now)
	}
	if m := r.occupancy(); m != r.occ {
		assert.Failf("router %d: VC occupancy masks %v, recount %v at cycle %d", r.ID, r.occ, m, now)
	}
	for p := range r.in {
		for v := range r.in[p] {
			ivc := &r.in[p][v]
			if !ivc.WindowOK() {
				assert.Failf("router %d: input VC %s/%d ring window broken at cycle %d", r.ID, topology.Direction(p), v, now)
			}
		}
		pl := &r.Ports[p]
		if pl.InFlit != nil && !pl.InFlit.WindowOK() || pl.InCtrl != nil && !pl.InCtrl.WindowOK() {
			assert.Failf("router %d: input link %s ring window broken at cycle %d", r.ID, topology.Direction(p), now)
		}
	}
	if m := r.inboxRecount(); m != r.inbox {
		assert.Failf("router %d: inbox %#x, input queues say %#x at cycle %d", r.ID, r.inbox, m, now)
	}
}

// inboxRecount rebuilds the inbox mask from the input queues.
func (r *Router) inboxRecount() uint64 {
	var m uint64
	for p := range r.Ports {
		if q := r.Ports[p].InCtrl; q != nil && !q.Empty() {
			m |= inCtrlBit(p)
		}
		if q := r.Ports[p].InFlit; q != nil && !q.Empty() {
			m |= inFlitBit(p)
		}
	}
	return m
}

// stateDigest folds every field CaptureState records except the input
// round-robin pointers, plus the buffered counter, into one digest.
// Like LinkQueueLens it is built without race instrumentation: it only
// re-reads, on the simulating goroutine, fields the instrumented
// pipeline itself accesses, and instrumenting it doubled -race runs of
// the flovdebug build.
//
//go:norace
func (r *Router) stateDigest() assert.Digest {
	var h assert.Digest
	h.Add(r.Traversals)
	h.Add(int64(r.buffered))
	for p := range r.in {
		for v := range r.in[p] {
			ivc := &r.in[p][v]
			h.Add(int64(ivc.State))
			h.Add(int64(ivc.OutDir))
			h.Add(int64(ivc.OutVC))
			h.Add(ivc.RCCycle)
			h.Add(ivc.VACycle)
			h.Add(ivc.WaitSince)
			h.Add(int64(ivc.Len()))
		}
		for vc, c := range r.out[p].Credits {
			h.Add(int64(c))
			h.AddBool(r.out[p].Allocated[vc])
		}
		h.Add(int64(r.vaPtr[p]))
		h.Add(int64(r.saPtr[p]))
	}
	return h
}

// LinkQueueLens returns the queue length of every port channel, in the
// order InFlit, OutFlit, InCtrl, OutCtrl per port (nil channels read 0).
// Debug checks compare it across a tick that must not move any queue.
//
//go:norace
func (r *Router) LinkQueueLens() [topology.NumPorts][4]int {
	var lens [topology.NumPorts][4]int
	for p := range r.Ports {
		pl := &r.Ports[p]
		if pl.InFlit != nil {
			lens[p][0] = pl.InFlit.Len()
		}
		if pl.OutFlit != nil {
			lens[p][1] = pl.OutFlit.Len()
		}
		if pl.InCtrl != nil {
			lens[p][2] = pl.InCtrl.Len()
		}
		if pl.OutCtrl != nil {
			lens[p][3] = pl.OutCtrl.Len()
		}
	}
	return lens
}

// countBuffered recounts the flits held in all input VCs.
func (r *Router) countBuffered() int {
	n := 0
	for p := range r.in {
		for v := range r.in[p] {
			n += r.in[p][v].Len()
		}
	}
	return n
}

// processCtrl consumes credits and dispatches control messages. It
// visits the non-empty control queues in port order; an item pushed
// during the pass is not visible before the next cycle.
func (r *Router) processCtrl(now int64) {
	for m := r.inbox & inCtrlBits; m != 0; m &= m - 1 {
		p := bits.TrailingZeros64(m)
		q := r.Ports[p].InCtrl
		for {
			s, ok := q.Pop(now)
			if !ok {
				break
			}
			if !s.IsCredit {
				if r.OnCtrl != nil {
					r.OnCtrl(topology.Direction(p), s.Msg)
				}
				continue
			}
			if r.DropCredit != nil && r.DropCredit(topology.Direction(p)) {
				if TraceCredit != nil {
					TraceCredit(r.ID, topology.Direction(p), s.VC, r.out[p].Credits[s.VC], "drop")
				}
				continue
			}
			if r.out[p].Credits[s.VC] >= r.out[p].Depth() {
				panic(fmt.Sprintf("router %d: duplicate credit on port %s vc %d at cycle %d",
					r.ID, topology.Direction(p), s.VC, now))
			}
			r.out[p].Return(s.VC)
			if TraceCredit != nil {
				TraceCredit(r.ID, topology.Direction(p), s.VC, r.out[p].Credits[s.VC], "return")
			}
		}
	}
}

// receive buffers flits arriving on every connected input port, in
// port order, visiting only the non-empty flit queues.
func (r *Router) receive(now int64) {
	for m := r.inbox & inFlitBits; m != 0; m &= m - 1 {
		p := bits.TrailingZeros64(m) - 8
		q := r.Ports[p].InFlit
		for {
			f, ok := q.Pop(now)
			if !ok {
				break
			}
			r.acceptFlit(topology.Direction(p), f, now)
		}
	}
}

// acceptFlit writes one flit into its input VC. Exposed to the FLOV
// wrapper, which feeds flits arriving during power-state transitions.
func (r *Router) acceptFlit(p topology.Direction, f *noc.Flit, now int64) {
	ivc := &r.in[p][f.VC]
	if ivc.State == noc.VCIdle {
		if !f.Type.IsHead() {
			panic(fmt.Sprintf("router %d: non-head flit %s into idle VC %d on port %s", r.ID, f, f.VC, p))
		}
		r.setState(p, ivc, noc.VCRouting)
		ivc.WaitSince = now
	}
	ivc.Push(f, now)
	r.occ[p] |= 1 << uint(f.VC)
	r.buffered++
	r.Ledger.AddBufferWrite(1)
}

// stageRC computes routes for head flits at the front of VCs in RC state.
func (r *Router) stageRC(now int64) {
	for p := range r.in {
		// A route decision changes only the state of the VC it routes, so
		// the mask read once per port lists exactly the VCs to visit.
		for m := r.stMask[noc.VCRouting][p]; m != 0; m &= m - 1 {
			ivc := &r.in[p][bits.TrailingZeros64(m)]
			f := ivc.Front()
			if f == nil {
				continue
			}
			if !f.Type.IsHead() {
				panic(fmt.Sprintf("router %d: RC on non-head flit %s", r.ID, f))
			}
			pkt := f.Pkt
			// Duato-style recovery: a head stalled beyond the threshold
			// moves to the escape subnetwork and stays there.
			if !pkt.Escape && now-ivc.WaitSince > int64(r.Cfg.EscapeTimeout) {
				pkt.Escape = true
			}
			dec := r.RouteFn(topology.Direction(p), pkt.Escape, pkt)
			if r.Faults != nil {
				dec = r.Faults.FilterRoute(topology.Direction(p), pkt, dec, now-ivc.WaitSince)
			}
			switch {
			case dec.Undeliverable:
				// Partition (or fault wedge) classified: drop the packet
				// explicitly once all its flits are co-resident.
				r.dropFront(topology.Direction(p), ivc, now)
			case dec.Hold:
				if r.WakeReq != nil {
					r.WakeReq(dec.WakeTarget)
				}
			case dec.NoRoute:
				// Wait for a power-state change or the escape timeout.
			default:
				ivc.OutDir = dec.Dir
				r.setState(topology.Direction(p), ivc, noc.VCWaitVC)
				ivc.RCCycle = now
			}
		}
	}
}

// candidateVCs returns the range [lo, hi) of downstream VC indices a
// packet may be allocated: regular VCs of its vnet, or the escape VC
// once the packet has entered the escape subnetwork. Ejection (Local)
// frees the packet from the escape restriction — any VC of the vnet
// works at the NI. It computes config.Config's VCBase and EscapeVC from
// the fields in place: calling those value-receiver methods copied the
// whole configuration on every VA grant.
func (r *Router) candidateVCs(pkt *noc.Packet, outDir topology.Direction) (lo, hi int) {
	per := r.Cfg.VCsPerVNet + r.Cfg.EscapePerVNet
	base := pkt.VNet * per
	if pkt.Escape && outDir != topology.Local {
		return base + per - 1, base + per
	}
	return base, base + r.Cfg.VCsPerVNet
}

// stageVA allocates downstream VCs to packets that completed RC at least
// one cycle ago (separable, per-output round-robin across input VCs).
func (r *Router) stageVA(now int64) {
	// One pass over the WaitVC masks sorts the requesters by output, in
	// (input port, VC) order. Allocating for one output never changes
	// another output's requester set, so gathering them all up front
	// yields the same sets as gathering each just before its turn.
	for out := range r.vaReqs {
		r.vaReqs[out] = r.vaReqs[out][:0]
	}
	for p := range r.in {
		for m := r.stMask[noc.VCWaitVC][p]; m != 0; m &= m - 1 {
			if ivc := &r.in[p][bits.TrailingZeros64(m)]; ivc.RCCycle < now {
				r.vaReqs[ivc.OutDir] = append(r.vaReqs[ivc.OutDir], saRequest{port: topology.Direction(p), ivc: ivc})
			}
		}
	}
	for out := range r.vaReqs {
		reqs := r.vaReqs[out] // indexed, not ranged: ranging copies the array
		outDir := topology.Direction(out)
		if len(reqs) == 0 || !r.Ports[out].Connected() {
			continue
		}
		if r.AllocOK != nil && outDir != topology.Local && !r.AllocOK(outDir) {
			// Handshake forbids starting new packets toward outDir:
			// return requesters to RC so they can adapt to the new
			// power states next cycle.
			for _, q := range reqs {
				r.setState(q.port, q.ivc, noc.VCRouting)
			}
			continue
		}
		// Round-robin from vaPtr: visit reqs[start:], then reqs[:start].
		i := rrIndex(r.vaPtr[out], len(reqs))
		for range reqs {
			q := reqs[i]
			if i++; i == len(reqs) {
				i = 0
			}
			f := q.ivc.Front()
			if f == nil {
				continue
			}
			granted := -1
			lo, hi := r.candidateVCs(f.Pkt, outDir)
			for vc := lo; vc < hi; vc++ {
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

		// Fault recovery: a requester starved of a VC grant past the
		// escape timeout (the downstream VC may be wedged behind failed
		// hardware) escalates to the escape subnetwork, and one wedged
		// beyond the drop timeout is classified undeliverable. Inactive
		// until the first fault, so fault-free runs are unaffected.
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

// saRequest is one input VC's allocation request (the VA stage's reused
// scratch element).
type saRequest struct {
	port topology.Direction
	ivc  *noc.InputVC
}

// stageSA performs switch allocation and traversal: one flit per input
// port and per output port per cycle, credits permitting, respecting the
// pipeline depth (a flit departs no earlier than arrival + stages - 1).
func (r *Router) stageSA(now int64) {
	// A flit traverses the switch RouterStages cycles after arrival, so
	// one hop costs RouterStages (router) + LinkLatency (wire) cycles —
	// the paper's 3-cycle router + 1-cycle link.
	pipeGate := int64(r.Cfg.RouterStages)

	// Input-first: each input port nominates one ready VC, scanning its
	// VCs round-robin from inPtr. The scan acts only on Active VCs that
	// hold a flit, so it walks that mask split at the start VC: the bits
	// at and above it first, then the bits below it, each in ascending
	// order — the rotated scan's visiting order. Each bid sets its input
	// port's bit in the bid mask of the output it wants.
	var bids [topology.NumPorts]*noc.InputVC
	var bidders [topology.NumPorts]uint8
	for p := range r.in {
		if m := r.stMask[noc.VCActive][p] & r.occ[p]; m != 0 {
			low := m & (uint64(1)<<uint(rrIndex(r.inPtr[p], len(r.in[p]))) - 1)
			ivc := r.nominate(topology.Direction(p), m&^low, now, pipeGate)
			if ivc == nil {
				ivc = r.nominate(topology.Direction(p), low, now, pipeGate)
			}
			if ivc != nil {
				bids[p] = ivc
				bidders[ivc.OutDir] |= 1 << uint(p)
			}
		}
		r.inPtr[p]++
	}

	// Output-side arbitration: one winner per output port, picked
	// round-robin among that output's bids in input-port order: the
	// (saPtr mod bids)-th set bit of its bid mask. An input port bids for
	// one output only, so it sends at most one flit per cycle.
	for out, m := range bidders {
		if m == 0 {
			continue
		}
		if m&(m-1) != 0 {
			for pick := rrIndex(r.saPtr[out], bits.OnesCount8(m)); pick > 0; pick-- {
				m &= m - 1
			}
		}
		r.saPtr[out]++
		p := bits.TrailingZeros8(m)
		r.traverse(topology.Direction(p), bids[p], now)
	}
}

// nominate walks the occupied Active VCs of input port p listed in m in
// ascending order and returns the first that can bid for the switch
// this cycle, or nil. A VC whose flit is not yet through the pipeline,
// whose output link has failed or whose downstream VC has no credit is
// passed over; the last two may fall back to route computation
// (releaseBlocked, maybeEscapeStarved), which changes only that VC's
// own state.
func (r *Router) nominate(p topology.Direction, m uint64, now, pipeGate int64) *noc.InputVC {
	for ; m != 0; m &= m - 1 {
		ivc := &r.in[p][bits.TrailingZeros64(m)]
		if ivc.FrontArrived()+pipeGate > now {
			continue
		}
		if r.Faults != nil && ivc.OutDir != topology.Local && r.Faults.LinkBlocked(ivc.OutDir) {
			// Failed link: no new traversal onto it. An untouched head
			// may re-route (escape packets included, so they can take
			// an alternate legal turn); partially sent packets wait
			// for the fault to heal.
			r.releaseBlocked(p, ivc, now)
			continue
		}
		if r.out[ivc.OutDir].Credits[ivc.OutVC] <= 0 {
			r.maybeEscapeStarved(p, ivc, now)
			continue
		}
		return ivc
	}
	return nil
}

// maybeEscapeStarved applies deadlock recovery to a packet that holds a
// downstream VC but has sent nothing and been starved of credits past the
// timeout: release the (untouched) allocation and re-route via escape.
func (r *Router) maybeEscapeStarved(p topology.Direction, ivc *noc.InputVC, now int64) {
	f := ivc.Front()
	if f == nil || !f.Type.IsHead() {
		return // mid-packet: downstream will drain via its own recovery
	}
	if f.Pkt.Escape || now-ivc.WaitSince <= int64(r.Cfg.EscapeTimeout) {
		return
	}
	r.out[ivc.OutDir].Allocated[ivc.OutVC] = false
	ivc.OutVC = -1
	f.Pkt.Escape = true
	r.setState(p, ivc, noc.VCRouting)
}

// releaseBlocked undoes an untouched VC allocation toward a failed link
// after the escape timeout, sending the head back to route computation in
// escape mode so it can pick a surviving path. Unlike maybeEscapeStarved
// it also releases packets already in escape mode — their deterministic
// escape route died under them and must be recomputed.
func (r *Router) releaseBlocked(p topology.Direction, ivc *noc.InputVC, now int64) {
	f := ivc.Front()
	if f == nil || !f.Type.IsHead() {
		return // mid-packet: must wait for the link to heal
	}
	if now-ivc.WaitSince <= int64(r.Cfg.EscapeTimeout) {
		return // give a transient fault a chance to heal in place
	}
	r.out[ivc.OutDir].Allocated[ivc.OutVC] = false
	ivc.OutVC = -1
	f.Pkt.Escape = true
	r.setState(p, ivc, noc.VCRouting)
}

// dropFront discards the packet at the front of ivc as a classified loss:
// every buffered flit is popped, its upstream credit returned (so flow
// control stays conserved), and OnDrop notified. It only acts once the
// whole packet is resident (head through tail) — wormhole flow control
// plus PacketSize <= BufferDepth guarantees the remaining flits arrive —
// and reports whether the drop happened. The VC must hold no downstream
// allocation (VCRouting/VCWaitVC states only).
func (r *Router) dropFront(port topology.Direction, ivc *noc.InputVC, now int64) bool {
	head := ivc.Front()
	if head == nil {
		return false
	}
	pkt := head.Pkt
	count := 0
	complete := false
	for i := 0; i < ivc.Len(); i++ {
		f := ivc.At(i)
		if f.Pkt != pkt {
			break
		}
		count++
		if f.Type.IsTail() {
			complete = true
			break
		}
	}
	if !complete {
		return false
	}
	r.buffered -= count
	for i := 0; i < count; i++ {
		ivc.Pop()
		if r.Ports[port].OutCtrl != nil {
			r.Ports[port].OutCtrl.Push(now, CreditSignal(ivc.Index))
			r.Ledger.AddDyn(power.CatCredit, 1)
		}
	}
	if ivc.Empty() {
		r.occ[port] &^= 1 << uint(ivc.Index)
		r.resetVC(port, ivc)
	} else {
		nf := ivc.Front()
		if !nf.Type.IsHead() {
			panic(fmt.Sprintf("router %d: flit %s behind dropped tail is not a head", r.ID, nf))
		}
		ivc.OutVC = -1
		r.setState(port, ivc, noc.VCRouting)
		ivc.WaitSince = now
	}
	if r.OnDrop != nil {
		r.OnDrop(pkt, count, now)
	}
	return true
}

// traverse moves the winning flit through the crossbar onto its output
// link and returns a credit upstream.
func (r *Router) traverse(port topology.Direction, ivc *noc.InputVC, now int64) {
	f := ivc.Pop()
	if ivc.Empty() {
		r.occ[port] &^= 1 << uint(ivc.Index)
	}
	r.buffered--
	outDir := ivc.OutDir

	r.Ledger.AddBufferRead(1)
	r.Ledger.AddDyn(power.CatCrossbar, 1)
	r.Ledger.AddDyn(power.CatArbitration, 1)
	r.Traversals++

	if f.Type.IsHead() {
		f.Pkt.ActiveHops++
	}

	f.VC = ivc.OutVC
	r.out[outDir].Consume(ivc.OutVC)
	if TraceCredit != nil {
		TraceCredit(r.ID, outDir, ivc.OutVC, r.out[outDir].Credits[ivc.OutVC], "consume")
	}
	r.Ports[outDir].OutFlit.Push(now, f)
	if outDir != topology.Local {
		r.Ledger.AddDyn(power.CatLink, 1)
		if f.Type.IsHead() {
			f.Pkt.LinkHops++
		}
	}

	// Credit back to whoever feeds this input port (router or NI).
	if r.Ports[port].OutCtrl != nil {
		r.Ports[port].OutCtrl.Push(now, CreditSignal(ivc.Index))
		r.Ledger.AddDyn(power.CatCredit, 1)
	}

	ivc.WaitSince = now
	if f.Type.IsTail() {
		r.out[outDir].Allocated[ivc.OutVC] = false
		if ivc.Empty() {
			r.resetVC(port, ivc)
		} else {
			nf := ivc.Front()
			if !nf.Type.IsHead() {
				panic(fmt.Sprintf("router %d: flit %s behind tail is not a head", r.ID, nf))
			}
			ivc.OutVC = -1
			r.setState(port, ivc, noc.VCRouting)
			ivc.WaitSince = now
		}
	}
}

// ReRoute sends every packet that computed a route toward d but has not
// yet been allocated a downstream VC back to route computation. Power-
// gating wrappers call this when a neighbor's power state changes: a
// route computed under the old state may now fly a packet over its own
// (freshly gated) destination, so it must be recomputed before it can
// commit. Committed packets (VCActive) are unaffected — the handshake
// protocol waits for them by design.
func (r *Router) ReRoute(d topology.Direction) {
	for p := range r.in {
		for m := r.stMask[noc.VCWaitVC][p]; m != 0; m &= m - 1 {
			if ivc := &r.in[p][bits.TrailingZeros64(m)]; ivc.OutDir == d {
				r.setState(topology.Direction(p), ivc, noc.VCRouting)
			}
		}
	}
}

// CommittedTo reports whether any in-flight packet still holds an
// allocation toward output port d — the condition a neighbor must wait
// out before answering a drain/wakeup handshake with drain_done.
func (r *Router) CommittedTo(d topology.Direction) bool {
	for p := range r.in {
		for m := r.stMask[noc.VCActive][p]; m != 0; m &= m - 1 {
			if r.in[p][bits.TrailingZeros64(m)].OutDir == d {
				return true
			}
		}
	}
	return false
}

// BuffersEmpty reports whether every input VC buffer is empty.
func (r *Router) BuffersEmpty() bool { return r.buffered == 0 }

// ArrivalsPending reports whether any flit is still queued on an input
// link (sent by a neighbor but not yet received).
func (r *Router) ArrivalsPending() bool { return r.inbox&inFlitBits != 0 }

// LocalActivity reports whether the router currently holds any flit that
// came from or is going to its local port (used for idle detection).
func (r *Router) LocalActivity() bool {
	// Any flit on the Local input port counts (a VC holding one is never
	// idle). Elsewhere only a VC past route computation has an output
	// port to check.
	if r.occ[topology.Local] != 0 {
		return true
	}
	for p := range r.in {
		m := (r.stMask[noc.VCWaitVC][p] | r.stMask[noc.VCActive][p]) & r.occ[p]
		for ; m != 0; m &= m - 1 {
			if r.in[p][bits.TrailingZeros64(m)].OutDir == topology.Local {
				return true
			}
		}
	}
	return false
}
