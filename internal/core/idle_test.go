package core

import (
	"testing"

	"flov/internal/config"
	"flov/internal/gating"
	"flov/internal/network"
	"flov/internal/noc"
	"flov/internal/router"
	"flov/internal/topology"
)

// idleAt reports whether a visit to the router at now can do nothing:
// it is not due before a later cycle.
func idleAt(w *flovRouter, now int64) bool { return w.due(now) > now }

// poked files every component for the current cycle after a test wrote
// router state directly or called the mechanism's OnGatingChange, which
// the wake calendar cannot see.
func poked(n *network.Network) { n.FileAll(n.Now()) }

// sleepingNet gates one interior core of a gFLOV network and steps until
// its router sleeps with nothing in flight around it.
func sleepingNet(t *testing.T) (*network.Network, *Mechanism, *flovRouter) {
	t.Helper()
	cfg := config.Default()
	cfg.TotalCycles = 1 << 30
	mesh, err := topology.NewMesh(cfg.Width, cfg.Height)
	if err != nil {
		t.Fatal(err)
	}
	id := mesh.ID(3, 3)
	mask := make([]bool, cfg.N())
	mask[id] = true
	mech := NewGFLOV()
	n, err := network.New(cfg, mech, gating.Static(mask), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := mech.ws[id]
	for i := 0; i < 500 && (w.state != Sleep || !idleAt(w, n.Now())); i++ {
		n.Step()
	}
	if w.state != Sleep || !idleAt(w, n.Now()) {
		t.Fatalf("router %d never reached an idle Sleep (state %v)", id, w.state)
	}
	return n, mech, w
}

// The OS waking the core makes the sleeping router due at once, and the
// next cycle starts the wakeup.
func TestCoreWakeBreaksSleepIdle(t *testing.T) {
	n, mech, w := sleepingNet(t)
	now := n.Now()
	if now < w.retryAt {
		t.Fatalf("test wants the retry window closed: now %d, retryAt %d", now, w.retryAt)
	}
	mech.OnGatingChange(now, make([]bool, n.Cfg.N()))
	poked(n)
	if idleAt(w, now) {
		t.Fatal("sleeping router idle after its core woke")
	}
	// The trigger mirrors tickSleep's: an ungated core breaks idleness
	// on its own, without the wake flag OnGatingChange also raises.
	w.wantWake = false
	if idleAt(w, now) {
		t.Fatal("sleeping router with an ungated core idle")
	}
	w.wantWake = true
	poked(n)
	n.Step()
	if w.state != Wakeup {
		t.Fatalf("router did not start waking: %v", w.state)
	}
}

// A wake request for this router breaks idleness on its arrival cycle,
// not before, and starts the wakeup that cycle.
func TestWakeTargetBreaksSleepIdle(t *testing.T) {
	testWakeTarget(t, false)
}

// A wake request that arrives while a logical partner drains is
// deferred, and the router stays non-idle until it can act on it.
func TestDeferredWakeTargetBreaksSleepIdle(t *testing.T) {
	testWakeTarget(t, true)
}

func testWakeTarget(t *testing.T, deferred bool) {
	n, _, w := sleepingNet(t)
	now := n.Now()
	if now < w.retryAt {
		t.Fatalf("test wants the retry window closed: now %d, retryAt %d", now, w.retryAt)
	}
	w.r.Ports[topology.West].InCtrl.Push(now, router.CtrlSignal(Msg{Type: MsgWakeTarget, From: w.physID[topology.West], To: -1, Target: w.id}))
	if !idleAt(w, now) {
		t.Fatal("wake request broke idleness before it is visible")
	}
	if idleAt(w, now+1) {
		t.Fatal("sleeping router idle with a wake request ready")
	}
	n.Step()
	if w.state != Sleep || w.wantWake {
		t.Fatalf("wake request acted before it was visible: state %v wantWake %v", w.state, w.wantWake)
	}
	if deferred {
		w.logState[topology.East] = Draining
		poked(n)
		n.Step()
		if w.state != Sleep || !w.wantWake {
			t.Fatalf("deferred wake request lost: state %v wantWake %v", w.state, w.wantWake)
		}
		if idleAt(w, n.Now()) {
			t.Fatal("sleeping router idle with a deferred wake request")
		}
		w.logState[topology.East] = Active
		poked(n)
	}
	n.Step()
	if !w.wantWake || w.state != Wakeup {
		t.Fatalf("wake request not honored: state %v wantWake %v", w.state, w.wantWake)
	}
}

// While the post-abort backoff runs, a pending wake is deferred and the
// router stays idle; the retryAt cycle itself is not skipped and starts
// the wakeup.
func TestRetryAtBoundaryNotSkipped(t *testing.T) {
	n, _, w := sleepingNet(t)
	retry := n.Now() + 5
	w.retryAt = retry
	w.wantWake = true
	poked(n)
	for n.Now() < retry {
		if !idleAt(w, n.Now()) {
			t.Fatalf("router not idle at cycle %d inside the backoff window", n.Now())
		}
		n.Step()
		if w.state != Sleep {
			t.Fatalf("router left Sleep at cycle %d before retryAt %d", n.Now()-1, retry)
		}
	}
	if idleAt(w, retry) {
		t.Fatal("retryAt cycle skipped")
	}
	n.Step()
	if w.state != Wakeup {
		t.Fatalf("router did not start waking on the retryAt cycle: %v", w.state)
	}
}

// RestoreState recounts the owed drain_done counter from the restored
// lists, so a router restored mid-handshake still sends its replies.
func TestRestoreRecountsOwed(t *testing.T) {
	_, mech := newBareNet(t, true)
	w := mech.ws[27]
	w.addOwe(topology.East, 28)
	w.addOwe(topology.North, 35)
	s := mech.CaptureState(noc.NewPacketTable())

	_, fresh := newBareNet(t, true)
	if err := fresh.RestoreState(s, nil); err != nil {
		t.Fatal(err)
	}
	if got := fresh.ws[27].owed; got != 2 {
		t.Fatalf("restored owed counter %d, want 2", got)
	}
}

// The skipped-tick digest sees a changed cycle in the wake rate-limit
// memory, not only its size: a skipped tick that rewrote one would
// otherwise go unseen, as a checkpoint would not.
func TestStateDigestFoldsWakeSentCycles(t *testing.T) {
	_, mech := newBareNet(t, true)
	w := mech.ws[27]
	w.wakeSent[30], w.wakeSent[31] = 100, 200
	before := w.stateDigest()
	w.wakeSent[31] = 201
	if w.stateDigest() == before {
		t.Fatal("digest missed a rewritten wake-request cycle")
	}
	w.wakeSent[31] = 200
	if w.stateDigest() != before {
		t.Fatal("digest differs for the same rate-limit memory")
	}
}
