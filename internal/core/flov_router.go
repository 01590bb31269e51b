package core

import (
	"fmt"

	"flov/internal/assert"
	"flov/internal/config"
	"flov/internal/noc"
	"flov/internal/power"
	"flov/internal/router"
	"flov/internal/routing"
	"flov/internal/topology"
)

// flovRouter wraps one baseline router with the FLOV architecture:
// power-state FSM, PSRs, HSC message handling, FLOV latches and credit
// relaying. All inter-router knowledge flows through control messages.
type flovRouter struct {
	id   int            //flovsnap:skip identity fixed at construction
	mech *Mechanism     //flovsnap:skip wiring installed by Attach
	r    *router.Router //flovsnap:skip wiring installed by Attach
	mesh topology.Mesh  //flovsnap:skip immutable topology
	cfg  config.Config  //flovsnap:skip immutable run configuration

	state     PowerState
	coreGated bool
	neverGate bool // always-on column routers never power down //flovsnap:skip derived from mesh position at construction

	// PSR set 1: immediate (physical) neighbors.
	physID    [topology.NumLinkDirs]int //flovsnap:skip immutable physical neighbor ids
	physState [topology.NumLinkDirs]PowerState
	// PSR set 2: logical neighbors (nearest powered-on router per
	// direction; equals the physical neighbor while it is powered).
	logID    [topology.NumLinkDirs]int
	logState [topology.NumLinkDirs]PowerState

	// FLOV latch datapath: one output latch per direction; only the
	// dimensions with neighbors on both sides carry fly-over links.
	flovX, flovY bool //flovsnap:skip derived from mesh position at construction
	latch        [topology.NumLinkDirs]*noc.Flit

	// Handshake bookkeeping.
	doneNeeded [topology.NumLinkDirs]bool  // awaiting drain_done per direction
	oweDone    [topology.NumLinkDirs][]int // requester ids owed a drain_done once uncommitted
	owed       int                         // ids across all oweDone lists //flovsnap:skip derived from oweDone; RestoreState recounts it
	awaitSync  [topology.NumLinkDirs]bool  // post-wakeup: discard credits until MsgCreditSync

	wantWake   bool
	poweredAt  int64 // cycle the wakeup latency elapses
	transStart int64 // cycle the current Draining/Wakeup began (timeout base)
	retryAt    int64 // no new transition attempts before this cycle
	lastLocal  int64 // last cycle with local (core) traffic activity
	wakeSent   map[int]int64

	localBusy func() bool //flovsnap:skip wiring installed by Attach
	now       int64       //flovsnap:skip re-seeded from the cycle argument at the top of every Tick

	// Counters for tests and reports.
	sleeps, wakes, drainAborts, wakeAborts int64
	latchTraversals                        int64

	// sleepTraversals snapshots the wrapped router's crossbar counter at
	// commitSleep; flovdebug builds assert it never moves while gated
	// (flits may only cross a gated router through the FLOV latches).
	sleepTraversals int64
}

// newFLOVRouter wraps r.
func newFLOVRouter(id int, mech *Mechanism, r *router.Router, mesh topology.Mesh, cfg config.Config) *flovRouter {
	w := &flovRouter{
		id:       id,
		mech:     mech,
		r:        r,
		mesh:     mesh,
		cfg:      cfg,
		wakeSent: make(map[int]int64),
	}
	w.neverGate = mesh.InAONColumn(id)
	w.flovX, w.flovY = mesh.FLOVDims(id)
	for d := 0; d < topology.NumLinkDirs; d++ {
		w.physID[d] = mesh.Neighbor(id, topology.Direction(d))
		w.physState[d] = Active
		w.logID[d] = w.physID[d]
		w.logState[d] = Active
	}

	r.RouteFn = func(inDir topology.Direction, escape bool, pkt *noc.Packet) routing.Decision {
		if escape {
			return routing.FLOVEscape(mesh, id, pkt.Dst, w)
		}
		return routing.FLOVRegular(mesh, id, pkt.Dst, inDir, w)
	}
	r.AllocOK = w.allocOK
	r.WakeReq = w.requestWake
	r.OnCtrl = w.onCtrl
	r.DropCredit = func(d topology.Direction) bool {
		return d != topology.Local && w.awaitSync[d]
	}
	return w
}

// --- routing.PowerView -----------------------------------------------

// NeighborOn implements routing.PowerView from the local PSRs.
func (w *flovRouter) NeighborOn(node int, d topology.Direction) bool {
	return w.physID[d] >= 0 && w.physState[d] == Active
}

// LogicalNeighbor implements routing.PowerView: the nearest powered-on
// router in direction d according to PSR set 2.
func (w *flovRouter) LogicalNeighbor(node int, d topology.Direction) int {
	return w.logID[d]
}

// allocOK gates new packet allocations per the handshake protocol: new
// transmissions may start toward Active neighbors and over stably
// sleeping routers whose logical neighbor is Active; never toward or
// across routers in Draining or Wakeup.
func (w *flovRouter) allocOK(d topology.Direction) bool {
	if d == topology.Local {
		return true
	}
	switch w.physState[d] {
	case Active:
		return true
	case Sleep:
		return w.logID[d] >= 0 && w.logState[d] == Active
	default:
		return false
	}
}

// requestWake sends (rate-limited) a MsgWakeTarget toward the gated
// destination router holding up a packet.
func (w *flovRouter) requestWake(target int) {
	if last, ok := w.wakeSent[target]; ok && w.now-last < 16 {
		return
	}
	w.wakeSent[target] = w.now
	d := w.mesh.DirectionTo(w.id, target, true)
	if d == topology.Local {
		return
	}
	// The gated destination lies on a straight line from here.
	tx, ty := w.mesh.XY(target)
	cx, cy := w.mesh.XY(w.id)
	switch {
	case tx == cx && ty > cy:
		d = topology.North
	case tx == cx && ty < cy:
		d = topology.South
	case ty == cy && tx > cx:
		d = topology.East
	case ty == cy && tx < cx:
		d = topology.West
	default:
		return // not straight-line adjacent: another router will assert it
	}
	w.send(d, Msg{Type: MsgWakeTarget, From: w.id, To: -1, Target: target})
}

// send pushes a handshake message out port d.
func (w *flovRouter) send(d topology.Direction, m Msg) {
	if w.r.Ports[d].OutCtrl == nil {
		return
	}
	w.r.Ports[d].OutCtrl.Push(w.now, router.CtrlSignal(m)) //flovlint:allow hotalloc -- control messages flow only during power transitions
	w.mech.ledger.AddDyn(power.CatHandshake, 1)
}

// relay forwards a control signal straight through a power-gated router.
// Relayed signals are registered for one extra cycle (2 cycles per
// sleeping hop), matching the FLOV data path: a drain_done or credit can
// therefore never overtake the data flits travelling the same line, which
// is what makes the multi-hop gFLOV drain handshake safe. The slower
// credit round trip over fly-over paths is the contention source the
// paper itself points out in §VI-B.
func (w *flovRouter) relay(from topology.Direction, s router.Signal) {
	opp := from.Opposite()
	if q := w.r.Ports[opp].OutCtrl; q != nil {
		q.PushAfter(w.now, 1, s)
		if s.IsCredit {
			w.mech.ledger.AddDyn(power.CatCredit, 1)
		}
	}
}

// relayOrBounce forwards a handshake request along the line; when the
// line ends here (mesh edge), nothing beyond can hold committed traffic,
// so the request is answered immediately with a drain_done on behalf of
// the dead end. Without this, a request whose entire line is power-gated
// would die at the edge and wedge the requester in Draining/Wakeup.
func (w *flovRouter) relayOrBounce(from topology.Direction, m Msg) {
	if w.r.Ports[from.Opposite()].OutCtrl != nil {
		w.relay(from, router.CtrlSignal(m)) //flovlint:allow hotalloc -- control messages flow only during power transitions
		return
	}
	w.send(from, Msg{Type: MsgDrainDone, From: w.id, To: m.From})
}

// --- per-cycle behaviour ----------------------------------------------

// transition switches the power state, notifying the mechanism's
// optional observer (event tracing and tests).
func (w *flovRouter) transition(to PowerState) {
	from := w.state
	w.state = to
	if w.mech.OnTransition != nil {
		w.mech.OnTransition(w.now, w.id, from, to)
	}
}

// Tick advances the FLOV router one cycle according to its power state.
// A router frozen by the fault subsystem does nothing at all: pipeline,
// FSM, latches and handshakes all halt until the fault heals (neighbors
// recover via their own transition timeouts and the escape heuristics).
func (w *flovRouter) Tick(now int64) {
	w.now = now
	if w.r.Frozen {
		return
	}
	switch w.state {
	case Active:
		w.r.Tick(now)
		w.sendOwedDones(now)
		w.tickActive(now)
	case Draining:
		w.r.Tick(now)
		w.sendOwedDones(now)
		w.tickDraining(now)
	case Sleep:
		if w.sleepIdle(now) {
			if assert.On {
				w.assertSleepIdleTick(now)
			}
			return
		}
		w.tickSleep(now)
	case Wakeup:
		w.tickWakeup(now)
	}
}

// sendOwedDones emits drain_done replies toward every handshake partner
// waiting on a direction, once no packet remains committed that way. Each
// reply is addressed to its requester so it cannot be mis-consumed by
// another router handshaking on the same line. With nothing owed it
// returns at once.
func (w *flovRouter) sendOwedDones(now int64) {
	if assert.On {
		n := 0
		for d := range w.oweDone {
			n += len(w.oweDone[d])
		}
		if n != w.owed {
			assert.Failf("flov %d: owed counter %d, recount %d at cycle %d", w.id, w.owed, n, now)
		}
	}
	if w.owed == 0 {
		return
	}
	for d := 0; d < topology.NumLinkDirs; d++ {
		if len(w.oweDone[d]) == 0 || w.r.CommittedTo(topology.Direction(d)) {
			continue
		}
		for _, to := range w.oweDone[d] {
			w.send(topology.Direction(d), Msg{Type: MsgDrainDone, From: w.id, To: to})
		}
		w.owed -= len(w.oweDone[d])
		w.oweDone[d] = w.oweDone[d][:0]
	}
}

// addOwe records that router `to` awaits our drain_done in direction d.
func (w *flovRouter) addOwe(d topology.Direction, to int) {
	for _, id := range w.oweDone[d] {
		if id == to {
			return
		}
	}
	w.oweDone[d] = append(w.oweDone[d], to)
	w.owed++
}

// removeOwe cancels a pending drain_done toward router `to`.
func (w *flovRouter) removeOwe(d topology.Direction, to int) {
	lst := w.oweDone[d][:0]
	for _, id := range w.oweDone[d] {
		if id != to {
			lst = append(lst, id)
		}
	}
	w.owed -= len(w.oweDone[d]) - len(lst)
	w.oweDone[d] = lst
}

func (w *flovRouter) tickActive(now int64) {
	if w.state != Active {
		return
	}
	w.wantWake = false
	if w.localBusy() || w.r.LocalActivity() {
		w.lastLocal = now
	}
	if w.drainEligible(now) {
		w.startDrain(now)
	}
}

// drainEligible applies the protocol preconditions for entering Draining.
func (w *flovRouter) drainEligible(now int64) bool {
	if w.neverGate || !w.coreGated || w.localBusy() || now < w.retryAt {
		return false
	}
	for d := 0; d < topology.NumLinkDirs; d++ {
		if w.awaitSync[d] {
			// Still rebuilding credit state after the last wakeup: the
			// sleep snapshot would hand stale counters upstream.
			return false
		}
	}
	if now-w.lastLocal < int64(w.cfg.IdleThreshold) {
		return false
	}
	for d := 0; d < topology.NumLinkDirs; d++ {
		if w.physID[d] < 0 {
			continue
		}
		if w.mech.generalized {
			// gFLOV: no logical partner may be mid-transition, and no
			// Draining-Draining / Draining-Wakeup logical pairs.
			if w.physState[d] == Draining || w.physState[d] == Wakeup {
				return false
			}
			if w.logID[d] >= 0 && w.logState[d] != Active {
				return false
			}
		} else {
			// rFLOV: no two consecutive routers may be powered down, so
			// every physical neighbor must be fully Active.
			if w.physState[d] != Active {
				return false
			}
		}
	}
	return true
}

// startDrain enters Draining and handshakes with the logical partners.
func (w *flovRouter) startDrain(now int64) {
	w.transition(Draining)
	w.transStart = now
	for d := 0; d < topology.NumLinkDirs; d++ {
		w.doneNeeded[d] = false
		if w.physID[d] < 0 || w.logID[d] < 0 {
			continue
		}
		w.doneNeeded[d] = true
		w.send(topology.Direction(d), Msg{Type: MsgDrainReq, From: w.id, To: -1})
	}
}

// abortDrain returns a Draining router to Active and informs partners.
// A small id-jittered backoff spaces out the next attempt so competing
// transitions desynchronize.
func (w *flovRouter) abortDrain() {
	w.transition(Active)
	w.drainAborts++
	w.retryAt = w.now + w.backoff()
	// Announce to EVERY handshake partner, not only those still owing a
	// drain_done: a partner that already replied recorded us as Draining
	// and would otherwise freeze its line toward us forever.
	for d := 0; d < topology.NumLinkDirs; d++ {
		if w.physID[d] >= 0 && w.logID[d] >= 0 {
			w.send(topology.Direction(d), Msg{Type: MsgDrainAbort, From: w.id, To: -1})
		}
		w.doneNeeded[d] = false
	}
}

// backoff returns the per-router retry delay.
func (w *flovRouter) backoff() int64 {
	return int64(w.cfg.RetryBackoff) + int64((w.id*13)%(w.cfg.RetryBackoff+1))
}

// abortWakeup gives up a wakeup attempt that cannot quiesce (transition
// timeout): the router returns to Sleep (its latches never stopped
// forwarding, so this is always safe), announces the abort so partners
// unfreeze their lines, and retries after a backoff. This breaks the
// circular wait that arises when many routers wake simultaneously under
// OS churn and their frozen lines block each other's drain handshakes.
func (w *flovRouter) abortWakeup(now int64) {
	w.transition(Sleep)
	w.wakeAborts++
	w.retryAt = now + w.backoff()
	for d := 0; d < topology.NumLinkDirs; d++ {
		w.doneNeeded[d] = false
		if w.physID[d] >= 0 && w.logID[d] >= 0 {
			w.send(topology.Direction(d), Msg{Type: MsgWakeupAbort, From: w.id, To: -1})
		}
	}
}

func (w *flovRouter) tickDraining(now int64) {
	if w.state != Draining {
		// A control message processed this cycle aborted the drain.
		return
	}
	if !w.coreGated || w.wantWake {
		w.abortDrain()
		return
	}
	if now-w.transStart > int64(w.cfg.TransitionTimeout) {
		// Cannot quiesce (congestion or handshake churn): release the
		// freeze and retry later.
		w.abortDrain()
		return
	}
	for d := 0; d < topology.NumLinkDirs; d++ {
		if w.doneNeeded[d] {
			return
		}
	}
	if !w.r.BuffersEmpty() || w.r.ArrivalsPending() || w.localBusy() {
		return
	}
	w.commitSleep(now)
}

// commitSleep power-gates the router: activate the FLOV muxes/latches,
// announce Sleep with credit copy-up payloads, and charge the gating
// energy overhead.
func (w *flovRouter) commitSleep(now int64) {
	w.transition(Sleep)
	w.sleeps++
	w.sleepTraversals = w.r.Traversals
	w.mech.ledger.AddDyn(power.CatGating, 1)
	for d := 0; d < topology.NumLinkDirs; d++ {
		if w.physID[d] < 0 {
			continue
		}
		far := topology.Direction(d).Opposite()
		m := Msg{Type: MsgSleep, From: w.id, To: -1, Target: -1, LogID: -1, LogState: Active}
		if w.physID[far] >= 0 {
			m.LogID = w.logID[far]
			m.LogState = w.logState[far]
			m.Counts = append([]int(nil), w.r.Out(far).Credits...) //flovlint:allow hotalloc -- credit-sync snapshot taken once per sleep commit
		}
		w.send(topology.Direction(d), m)
	}
}

func (w *flovRouter) tickSleep(now int64) {
	if assert.On {
		w.assertGatedQuiescent(now)
	}
	w.forwardLatches(now)
	w.relayAndObserve(now)

	// Wakeup triggers: core re-activated by the OS, or a neighbor holds a
	// packet destined to this core. Deferred while any logical partner is
	// draining (gFLOV rule: the draining router changes state first) and
	// during the post-abort backoff window.
	if now < w.retryAt {
		return
	}
	if !w.coreGated || w.wantWake {
		for d := 0; d < topology.NumLinkDirs; d++ {
			if w.logID[d] >= 0 && w.logState[d] == Draining {
				return
			}
		}
		w.startWakeup(now)
	}
}

// sleepIdle reports whether tickSleep at now would be a no-op: every
// latch is empty, nothing becomes visible on an input it drains (link
// control queues, every flit queue), and no wake trigger can fire. A
// sleeping router never drains its Local control queue, so credits left
// there do not count. Channel latency is at least one cycle, so nothing
// a neighbor pushes during this cycle is Ready at now.
func (w *flovRouter) sleepIdle(now int64) bool {
	if now >= w.retryAt && (!w.coreGated || w.wantWake) {
		return false
	}
	if !w.latchesEmpty() {
		return false
	}
	for d := 0; d < topology.NumLinkDirs; d++ {
		p := &w.r.Ports[d]
		if p.InCtrl != nil && p.InCtrl.Ready(now) || p.InFlit != nil && p.InFlit.Ready(now) {
			return false
		}
	}
	q := w.r.Ports[topology.Local].InFlit
	return q == nil || !q.Ready(now)
}

// assertSleepIdleTick (flovdebug builds) runs tickSleep on a router that
// sleepIdle declared idle and fails if the tick changed its FSM, PSRs,
// latches, handshake bookkeeping, wake requests or any of its port
// queues. It runs on every idle sleeping router-cycle, so it compares
// allocation-free digests rather than CaptureState copies.
func (w *flovRouter) assertSleepIdleTick(now int64) {
	want, wantQueued := w.stateDigest(), w.r.LinkQueueLens()
	w.tickSleep(now)
	if w.stateDigest() != want {
		assert.Failf("flov %d: idle sleep tick at cycle %d changed router state", w.id, now)
	}
	if got := w.r.LinkQueueLens(); got != wantQueued {
		assert.Failf("flov %d: idle sleep tick at cycle %d moved link queues %v -> %v", w.id, now, wantQueued, got)
	}
}

// stateDigest folds the wrapper's mutable state (what CaptureState
// records; the wake rate-limit memory by size only) into one digest.
// It is built without race instrumentation, as router.stateDigest is.
//
//go:norace
func (w *flovRouter) stateDigest() assert.Digest {
	var h assert.Digest
	h.Add(int64(w.state))
	h.AddBool(w.coreGated)
	h.AddBool(w.wantWake)
	for d := 0; d < topology.NumLinkDirs; d++ {
		h.Add(int64(w.physState[d]))
		h.Add(int64(w.logID[d]))
		h.Add(int64(w.logState[d]))
		h.AddBool(w.latch[d] != nil)
		h.AddBool(w.doneNeeded[d])
		h.AddBool(w.awaitSync[d])
		h.Add(int64(len(w.oweDone[d])))
		for _, id := range w.oweDone[d] {
			h.Add(int64(id))
		}
	}
	for _, v := range [...]int64{w.poweredAt, w.transStart, w.retryAt, w.lastLocal, int64(len(w.wakeSent)),
		w.sleeps, w.wakes, w.drainAborts, w.wakeAborts, w.latchTraversals, w.sleepTraversals} {
		h.Add(v)
	}
	return h
}

// startWakeup begins powering the router back on.
func (w *flovRouter) startWakeup(now int64) {
	w.transition(Wakeup)
	w.transStart = now
	w.poweredAt = now + int64(w.cfg.WakeupLatency)
	for d := 0; d < topology.NumLinkDirs; d++ {
		w.doneNeeded[d] = false
		if w.physID[d] < 0 || w.logID[d] < 0 {
			continue
		}
		w.doneNeeded[d] = true
		w.send(topology.Direction(d), Msg{Type: MsgWakeupReq, From: w.id, To: -1})
	}
}

func (w *flovRouter) tickWakeup(now int64) {
	if assert.On {
		w.assertGatedQuiescent(now)
	}
	w.forwardLatches(now)
	for d := 0; d < topology.NumLinkDirs; d++ {
		q := w.r.Ports[d].InCtrl
		if q == nil {
			continue
		}
		dir := topology.Direction(d)
		q.Drain(now, func(s router.Signal) {
			if s.IsCredit {
				w.relay(dir, s) // still relaying downstream credits upstream
				return
			}
			w.handleWakeupMsg(dir, s.Msg.(Msg))
		})
	}

	ready := now >= w.poweredAt && w.latchesEmpty() && !w.flovArrivalsPending()
	for d := 0; d < topology.NumLinkDirs; d++ {
		if w.doneNeeded[d] {
			ready = false
		}
	}
	if ready {
		w.commitActive(now)
		return
	}
	if now-w.transStart > int64(w.cfg.TransitionTimeout) {
		w.abortWakeup(now)
	}
}

// handleWakeupMsg processes handshake traffic while in Wakeup.
func (w *flovRouter) handleWakeupMsg(d topology.Direction, m Msg) {
	switch m.Type {
	case MsgDrainDone:
		// Ours clears the direction; anyone else's is relayed onward —
		// this is how the drain_done reaches the other Wakeup routers
		// on the line (paper §IV-B), always behind the data flits.
		if m.To == w.id {
			w.doneNeeded[d] = false
		} else {
			w.relay(d, router.CtrlSignal(m)) //flovlint:allow hotalloc -- control messages flow only during power transitions
		}
	case MsgDrainReject, MsgCreditSync:
		// Point-to-point replies for someone else pass through.
		if m.To != w.id {
			w.relay(d, router.CtrlSignal(m)) //flovlint:allow hotalloc -- control messages flow only during power transitions
		}
	case MsgDrainReq:
		// Draining loses to Wakeup: force the requester to abort.
		w.send(d, Msg{Type: MsgDrainReject, From: w.id, To: m.From})
	case MsgWakeupReq:
		// Another router on this line is waking too. Simultaneous
		// wakeups have no mutual dependence, so we owe it nothing — but
		// the first Active router beyond us does: relay the request to
		// it (or answer for the dead end at the mesh edge). Its
		// drain_done replies, relayed back through every waking router
		// behind the data flits, unblock the whole line.
		w.observe(d, m)
		w.relayOrBounce(d, m)
	case MsgSleep:
		w.observe(d, m)
		w.relay(d, router.CtrlSignal(m)) //flovlint:allow hotalloc -- control messages flow only during power transitions
	case MsgAwake:
		w.observe(d, m)
	case MsgWakeTarget:
		if m.Target != w.id {
			w.relay(d, router.CtrlSignal(m)) //flovlint:allow hotalloc -- control messages flow only during power transitions
		}
	default:
		w.observe(d, m)
	}
}

// commitActive finishes the wakeup: switch the muxes back, zero the
// output credits (they are rebuilt from MsgCreditSync replies), and
// announce Active.
func (w *flovRouter) commitActive(now int64) {
	w.transition(Active)
	w.wakes++
	w.mech.ledger.AddDyn(power.CatGating, 1)
	w.wantWake = false
	w.lastLocal = now
	for d := 0; d < topology.NumLinkDirs; d++ {
		if w.physID[d] < 0 {
			continue
		}
		w.r.Out(topology.Direction(d)).SetZero()
		// Credits arriving before the sync reply are already included in
		// its snapshot; discard them until it lands.
		w.awaitSync[d] = w.logID[d] >= 0
		w.send(topology.Direction(d), Msg{Type: MsgAwake, From: w.id, To: -1})
	}
}

// assertGatedQuiescent checks (flovdebug builds) that a power-gated
// router's pipeline is truly dark: no flit has crossed its crossbar
// since commitSleep and its input buffers stay empty — traffic may only
// pass through the FLOV latch bypass.
func (w *flovRouter) assertGatedQuiescent(now int64) {
	if w.r.Traversals != w.sleepTraversals {
		assert.Failf("flov %d: %d flit(s) traversed the gated pipeline in state %v at cycle %d",
			w.id, w.r.Traversals-w.sleepTraversals, w.state, now)
	}
	if !w.r.BuffersEmpty() {
		assert.Failf("flov %d: input buffers non-empty while gated in state %v at cycle %d",
			w.id, w.state, now)
	}
}

// latchesEmpty reports whether all FLOV output latches are clear.
func (w *flovRouter) latchesEmpty() bool {
	for _, f := range w.latch {
		if f != nil {
			return false
		}
	}
	return true
}

// flovArrivalsPending reports whether flits are still in flight on the
// fly-over input links.
func (w *flovRouter) flovArrivalsPending() bool {
	for d := 0; d < topology.NumLinkDirs; d++ {
		if q := w.r.Ports[d].InFlit; q != nil && q.Len() > 0 {
			return true
		}
	}
	return false
}

// forwardLatches runs the FLOV bypass datapath: each active dimension
// forwards its latch onto the output link and refills it from the
// opposite input, one flit per cycle per direction (1-cycle latch +
// 1-cycle link = the paper's fast FLOV hop).
func (w *flovRouter) forwardLatches(now int64) {
	for d := 0; d < topology.NumLinkDirs; d++ {
		out := topology.Direction(d)
		if out.IsVertical() && !w.flovY || !out.IsVertical() && !w.flovX {
			continue
		}
		if f := w.latch[d]; f != nil {
			w.latch[d] = nil
			w.r.Ports[out].OutFlit.Push(now, f)
			w.mech.ledger.AddDyn(power.CatLink, 1)
			if f.Type.IsHead() {
				f.Pkt.LinkHops++
			}
		}
		in := out.Opposite()
		if w.latch[d] == nil {
			if f, ok := w.r.Ports[in].InFlit.Pop(now); ok {
				if f.Pkt.Dst == w.id {
					panic(fmt.Sprintf("flov %d: flit %s for own core arrived while power-gated", w.id, f))
				}
				w.latch[d] = f
				w.latchTraversals++
				w.mech.ledger.AddDyn(power.CatFLOVLatch, 1)
				if f.Type.IsHead() {
					f.Pkt.FLOVHops++
				}
			}
		}
	}
	// Dead dimensions and the local port must stay silent while gated.
	for d := 0; d < topology.NumLinkDirs; d++ {
		out := topology.Direction(d)
		dead := out.IsVertical() && !w.flovY || !out.IsVertical() && !w.flovX
		if dead {
			if q := w.r.Ports[out].InFlit; q != nil {
				if f, ok := q.Pop(now); ok {
					panic(fmt.Sprintf("flov %d: flit %s arrived on dead dimension %s while gated", w.id, f, out))
				}
			}
		}
	}
	if q := w.r.Ports[topology.Local].InFlit; q != nil {
		if f, ok := q.Pop(now); ok {
			panic(fmt.Sprintf("flov %d: local flit %s injected while gated", w.id, f))
		}
	}
}

// relayAndObserve handles the control plane of a sleeping router: relay
// credits and handshake signals straight through, consume wake requests
// addressed here, and keep the PSRs current from passing messages.
func (w *flovRouter) relayAndObserve(now int64) {
	for d := 0; d < topology.NumLinkDirs; d++ {
		q := w.r.Ports[d].InCtrl
		if q == nil {
			continue
		}
		dir := topology.Direction(d)
		q.Drain(now, func(s router.Signal) {
			if s.IsCredit {
				w.relay(dir, s)
				return
			}
			m := s.Msg.(Msg)
			if m.Type == MsgWakeTarget && m.Target == w.id {
				w.wantWake = true
				return
			}
			// Addressed replies: a late reply to this (now sleeping)
			// router is stale and must be dropped, not passed to a
			// router that would misread it; everything else relays.
			if m.To >= 0 && m.To == w.id {
				return
			}
			w.observe(dir, m)
			if m.Type == MsgDrainReq || m.Type == MsgWakeupReq {
				w.relayOrBounce(dir, m)
			} else {
				w.relay(dir, s)
			}
		})
	}
}

// observe updates PSRs from a message seen on port d (either consumed or
// relayed): power-gated routers keep both PSR sets current this way.
func (w *flovRouter) observe(d topology.Direction, m Msg) {
	if m.From == w.physID[d] {
		switch m.Type {
		case MsgDrainReq:
			w.physState[d] = Draining
		case MsgDrainAbort, MsgAwake:
			w.physState[d] = Active
		case MsgSleep, MsgWakeupAbort:
			w.physState[d] = Sleep
		case MsgWakeupReq:
			w.physState[d] = Wakeup
		default:
			// Credit sync, drain votes and wake-target unicasts carry no
			// physical power-state information.
		}
	}
	switch m.Type {
	case MsgDrainReq:
		if m.From == w.logID[d] {
			w.logState[d] = Draining
		}
	case MsgDrainAbort:
		if m.From == w.logID[d] {
			w.logState[d] = Active
		}
	case MsgSleep:
		if m.From == w.logID[d] {
			w.logID[d] = m.LogID
			w.logState[d] = m.LogState
			if m.LogID < 0 {
				w.logState[d] = Active
			}
		}
	case MsgWakeupAbort:
		// The waker went back to Sleep; the logical neighborhood is as
		// it was before its request.
		w.logState[d] = Active
	case MsgAwake:
		w.logID[d] = m.From
		w.logState[d] = Active
	case MsgWakeupReq:
		// Unconditional: a sleeping router between us and the logical
		// neighbor is powering up, so no new packets may be committed
		// across this line until its MsgAwake (it could not absorb a
		// starved line: its latches must drain before it can finish).
		w.logState[d] = Wakeup
	default:
		// Credit sync, drain votes and wake-target unicasts carry no
		// logical power-state information.
	}
}
