package network

import (
	"flov/internal/noc"
	"flov/internal/routing"
	"flov/internal/topology"
)

// BaselineMech is the no-power-gating mechanism: every router is always
// on and packets follow YX dimension-order routing (deadlock-free, so the
// escape machinery never triggers). It is the "Baseline" series of every
// figure.
type BaselineMech struct {
	n *Network
}

// NewBaseline returns the baseline mechanism.
func NewBaseline() *BaselineMech { return &BaselineMech{} }

// Name implements Mechanism.
func (b *BaselineMech) Name() string { return "Baseline" }

// Attach installs YX routing on every router.
func (b *BaselineMech) Attach(n *Network) {
	b.n = n
	for id, r := range n.Routers {
		cur := id
		rr := r
		rr.RouteFn = func(inDir topology.Direction, escape bool, pkt *noc.Packet) routing.Decision {
			return routing.Decision{Dir: routing.YX(n.Mesh, cur, pkt.Dst)}
		}
	}
}

// OnGatingChange ignores core gating: baseline routers never power down.
func (b *BaselineMech) OnGatingChange(now int64, gated []bool) {}

// TickRouter advances router id's full pipeline.
func (b *BaselineMech) TickRouter(id int, now int64) int64 {
	r := b.n.Routers[id]
	r.Tick(now)
	return r.Due(now + 1)
}

// FinishRouters has nothing to do: the baseline has no protocol state.
func (b *BaselineMech) FinishRouters(now int64) {}

// CanInject always allows injection.
func (b *BaselineMech) CanInject(node int) bool { return true }

// RouterPowerCounts reports all routers at full static power.
func (b *BaselineMech) RouterPowerCounts() (on, gated int) { return len(b.n.Routers), 0 }

// RouterOn reports every router as powered.
func (b *BaselineMech) RouterOn(id int) bool { return true }

// FLOVCapable is false: baseline routers carry no FLOV overhead.
func (b *BaselineMech) FLOVCapable() bool { return false }

// Quiescent is always true: the baseline has no protocol state.
func (b *BaselineMech) Quiescent() bool { return true }
