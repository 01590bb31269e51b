// Package fault is the deterministic fault-injection subsystem: transient
// and permanent link and router failures driven off a dedicated seeded
// SplitMix64 stream, so fault timing is reproducible and fully independent
// of the traffic RNG. The injector only models *when* components fail and
// heal and what stays mutually reachable; the network decides how packets
// react (reroute, classify as undeliverable, freeze a router pipeline).
//
// Two fault sources compose:
//
//   - rates: every cycle, each healthy link/router fails transiently with
//     the configured per-cycle probability, healing TransientCycles later;
//   - schedule: an explicit event list injects faults at fixed cycles,
//     transient or permanent (the reproducible "kill this link at cycle
//     10k" scenarios the reliability harness sweeps).
//
// Link faults are symmetric: both directions of the physical channel fail
// together. Permanent faults partition the mesh; the injector maintains
// connected-component labels over the surviving subgraph so routing can
// classify packets whose destination is unreachable instead of hanging.
package fault

import (
	"bytes"
	"encoding/json"
	"fmt"

	"flov/internal/sim"
	"flov/internal/topology"
)

// DefaultTransientCycles is the heal delay for rate-driven transient
// faults when the spec leaves TransientCycles zero.
const DefaultTransientCycles = 100

// Event is one scheduled fault: at cycle At, the named component fails.
// Transient > 0 heals the fault that many cycles later; 0 is permanent.
type Event struct {
	At   int64  `json:"at"`
	Kind string `json:"kind"`          // "link" or "router"
	Node int    `json:"node"`          // router id (link: one endpoint)
	Dir  string `json:"dir,omitempty"` // link only: "N","E","S","W" from Node
	// Transient heals the fault after this many cycles; 0 means permanent.
	Transient int64 `json:"transient,omitempty"`
}

// Spec configures an injector. The zero value injects nothing; a Spec with
// zero rates and an empty schedule attached to a network leaves the run
// byte-identical to one with no fault subsystem at all.
type Spec struct {
	// Seed seeds the dedicated fault RNG stream.
	Seed uint64 `json:"seed,omitempty"`
	// LinkRate is the per-link per-cycle transient failure probability.
	LinkRate float64 `json:"link_rate,omitempty"`
	// RouterRate is the per-router per-cycle transient failure probability.
	RouterRate float64 `json:"router_rate,omitempty"`
	// TransientCycles is how long rate-driven faults last before healing
	// (0 means DefaultTransientCycles).
	TransientCycles int64 `json:"transient_cycles,omitempty"`
	// Schedule lists explicit fault events, applied in order of At.
	Schedule []Event `json:"schedule,omitempty"`
	// DropTimeout is how many cycles a head flit may sit unroutable while
	// permanent faults exist before the network classifies its packet as
	// undeliverable (0 derives 8x the config's escape timeout).
	DropTimeout int64 `json:"drop_timeout,omitempty"`
}

// Zero reports whether the spec can never inject a fault.
func (s Spec) Zero() bool {
	return s.LinkRate == 0 && s.RouterRate == 0 && len(s.Schedule) == 0
}

// Validate rejects malformed specs against the given mesh.
func (s Spec) Validate(m topology.Mesh) error {
	if s.LinkRate < 0 || s.LinkRate >= 1 || s.RouterRate < 0 || s.RouterRate >= 1 {
		return fmt.Errorf("fault: rates must lie in [0,1), got link=%g router=%g", s.LinkRate, s.RouterRate)
	}
	if s.TransientCycles < 0 || s.DropTimeout < 0 {
		return fmt.Errorf("fault: negative transient_cycles or drop_timeout")
	}
	last := int64(-1)
	for i, ev := range s.Schedule {
		if ev.At < 0 || ev.At < last {
			return fmt.Errorf("fault: schedule[%d] at cycle %d out of order", i, ev.At)
		}
		last = ev.At
		if ev.Node < 0 || ev.Node >= m.N() {
			return fmt.Errorf("fault: schedule[%d] node %d outside mesh", i, ev.Node)
		}
		switch ev.Kind {
		case "router":
		case "link":
			d, err := ParseDir(ev.Dir)
			if err != nil {
				return fmt.Errorf("fault: schedule[%d]: %v", i, err)
			}
			if !m.HasNeighbor(ev.Node, d) {
				return fmt.Errorf("fault: schedule[%d] node %d has no %s link", i, ev.Node, d)
			}
		default:
			return fmt.Errorf("fault: schedule[%d] kind %q (want link or router)", i, ev.Kind)
		}
		if ev.Transient < 0 {
			return fmt.Errorf("fault: schedule[%d] negative transient duration", i)
		}
	}
	return nil
}

// ParseDir parses a link direction name as used in fault specs.
func ParseDir(s string) (topology.Direction, error) {
	switch s {
	case "N", "n", "north":
		return topology.North, nil
	case "E", "e", "east":
		return topology.East, nil
	case "S", "s", "south":
		return topology.South, nil
	case "W", "w", "west":
		return topology.West, nil
	}
	return 0, fmt.Errorf("fault: unknown link direction %q", s)
}

// ParseSpec decodes a fault spec from JSON, rejecting unknown fields so a
// typo in a spec file fails loudly instead of silently injecting nothing.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("fault: parsing spec: %v", err)
	}
	return s, nil
}

// downState encodes one component's health: 0 healthy, permanentlyDown
// permanently failed, any positive value the cycle the fault heals.
const permanentlyDown = int64(-1)

// Injector tracks live fault state for one mesh. It is deterministic:
// state after N ticks is a pure function of the spec and the mesh, and it
// serializes for checkpoints via CaptureState/RestoreState.
type Injector struct {
	spec Spec //flovsnap:skip immutable after NewInjector; the snapshot container carries the canonical spec JSON and rejects mismatches
	mesh topology.Mesh
	rng  *sim.RNG

	transient int64 // resolved heal delay for rate-driven faults //flovsnap:skip derived from the spec in NewInjector

	// linkDown[node][dir] mirrors each physical link under both endpoint
	// entries; routerDown[id] covers whole routers. Encoding: downState.
	linkDown   [][]int64
	routerDown []int64
	schedIdx   int
	ever       bool

	// comp holds connected-component labels of the subgraph surviving all
	// *permanent* faults (-1 for permanently dead routers); nil until the
	// first permanent fault, since without one everything heals eventually
	// and every pair stays mutually reachable.
	comp []int
	// permVersion counts permanent-fault-set changes; consumers (Router
	// Parking) reconfigure only when it moves, ignoring transient churn.
	permVersion int64

	// Counters (fault injection events, not down-cycles).
	linkFaults   int64
	routerFaults int64
}

// NewInjector builds an injector for spec over mesh. The spec must have
// been validated.
func NewInjector(spec Spec, mesh topology.Mesh) *Injector {
	inj := &Injector{
		spec:      spec,
		mesh:      mesh,
		rng:       sim.NewRNG(spec.Seed ^ 0x6661756c74736565), // "faultsee"
		transient: spec.TransientCycles,
	}
	if inj.transient <= 0 {
		inj.transient = DefaultTransientCycles
	}
	n := mesh.N()
	inj.linkDown = make([][]int64, n)
	for i := range inj.linkDown {
		inj.linkDown[i] = make([]int64, topology.NumLinkDirs)
	}
	inj.routerDown = make([]int64, n)
	return inj
}

// Spec returns the injector's configuration.
func (inj *Injector) Spec() Spec { return inj.spec }

// Tick advances fault state to cycle now: heals expired transients,
// applies due scheduled events and draws rate-driven faults. It reports
// whether any component changed health this cycle. With a Zero spec it
// never touches the RNG, keeping zero-fault runs byte-identical to runs
// without an injector.
func (inj *Injector) Tick(now int64) bool {
	changed := false
	permChanged := false

	// Heal expired transients (links via their canonical N/E owner entry).
	for id := range inj.linkDown {
		for _, d := range [2]topology.Direction{topology.North, topology.East} {
			until := inj.linkDown[id][d]
			if until > 0 && now >= until {
				inj.setLink(id, d, 0)
				changed = true
			}
		}
	}
	for id, until := range inj.routerDown {
		if until > 0 && now >= until {
			inj.routerDown[id] = 0
			changed = true
		}
	}

	// Scheduled events.
	for inj.schedIdx < len(inj.spec.Schedule) && inj.spec.Schedule[inj.schedIdx].At <= now {
		ev := inj.spec.Schedule[inj.schedIdx]
		inj.schedIdx++
		state := permanentlyDown
		if ev.Transient > 0 {
			state = now + ev.Transient
		}
		if ev.Kind == "router" {
			if inj.routerDown[ev.Node] == permanentlyDown {
				continue
			}
			inj.routerDown[ev.Node] = state
			inj.routerFaults++
		} else {
			d, err := ParseDir(ev.Dir)
			if err != nil {
				// Validate rejects malformed events before an injector is
				// built; an unparseable direction can never fire.
				continue
			}
			if inj.linkState(ev.Node, d) == permanentlyDown {
				continue
			}
			inj.setLink(ev.Node, d, state)
			inj.linkFaults++
		}
		inj.ever = true
		changed = true
		if state == permanentlyDown {
			permChanged = true
		}
	}

	// Rate-driven transient faults, in fixed component order so the draw
	// sequence (and therefore the whole schedule) is deterministic.
	if inj.spec.LinkRate > 0 {
		for id := 0; id < inj.mesh.N(); id++ {
			for _, d := range [2]topology.Direction{topology.North, topology.East} {
				if !inj.mesh.HasNeighbor(id, d) || inj.linkDown[id][d] != 0 {
					continue
				}
				if inj.rng.Bernoulli(inj.spec.LinkRate) {
					inj.setLink(id, d, now+inj.transient)
					inj.linkFaults++
					inj.ever = true
					changed = true
				}
			}
		}
	}
	if inj.spec.RouterRate > 0 {
		for id := 0; id < inj.mesh.N(); id++ {
			if inj.routerDown[id] != 0 {
				continue
			}
			if inj.rng.Bernoulli(inj.spec.RouterRate) {
				inj.routerDown[id] = now + inj.transient
				inj.routerFaults++
				inj.ever = true
				changed = true
			}
		}
	}

	if permChanged {
		inj.recomputeComponents()
	}
	return changed
}

// setLink writes both mirrored entries of the physical link (id, d).
func (inj *Injector) setLink(id int, d topology.Direction, state int64) {
	nb := inj.mesh.Neighbor(id, d)
	inj.linkDown[id][d] = state
	if nb >= 0 {
		inj.linkDown[nb][d.Opposite()] = state
	}
}

// linkState returns the health entry for link (id, d).
func (inj *Injector) linkState(id int, d topology.Direction) int64 {
	if d < 0 || d >= topology.NumLinkDirs {
		return 0
	}
	return inj.linkDown[id][d]
}

// LinkUp reports whether the link from id in direction d is healthy this
// cycle. Local and edge directions report true (there is no link to fail).
func (inj *Injector) LinkUp(id int, d topology.Direction) bool {
	return inj.linkState(id, d) == 0
}

// RouterUp reports whether router id is healthy this cycle.
func (inj *Injector) RouterUp(id int) bool { return inj.routerDown[id] == 0 }

// RouterPermanentlyDown reports whether router id failed permanently.
func (inj *Injector) RouterPermanentlyDown(id int) bool {
	return inj.routerDown[id] == permanentlyDown
}

// LinkPermanentlyDown reports whether link (id, d) failed permanently.
func (inj *Injector) LinkPermanentlyDown(id int, d topology.Direction) bool {
	return inj.linkState(id, d) == permanentlyDown
}

// EverFaulted reports whether any fault has been injected so far. The
// network gates its fault-recovery heuristics on this so a zero-rate spec
// changes nothing.
func (inj *Injector) EverFaulted() bool { return inj.ever }

// HasPermanent reports whether any permanent fault has been injected.
func (inj *Injector) HasPermanent() bool { return inj.comp != nil }

// Reachable reports whether a packet at router a can ever reach router b
// given the permanent faults injected so far. Transient faults heal and
// power-gated routers wake, so only permanent damage partitions the mesh.
func (inj *Injector) Reachable(a, b int) bool {
	if inj.comp == nil {
		return true
	}
	return inj.comp[a] >= 0 && inj.comp[a] == inj.comp[b]
}

// recomputeComponents relabels connected components of the subgraph that
// survives all permanent faults.
func (inj *Injector) recomputeComponents() {
	inj.permVersion++
	n := inj.mesh.N()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	queue := make([]int, 0, n)
	for start := 0; start < n; start++ {
		if comp[start] >= 0 || inj.routerDown[start] == permanentlyDown {
			continue
		}
		comp[start] = next
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for d := topology.Direction(0); d < topology.NumLinkDirs; d++ {
				nb := inj.mesh.Neighbor(cur, d)
				if nb < 0 || comp[nb] >= 0 ||
					inj.routerDown[nb] == permanentlyDown ||
					inj.linkDown[cur][d] == permanentlyDown {
					continue
				}
				comp[nb] = next
				queue = append(queue, nb)
			}
		}
		next++
	}
	inj.comp = comp
}

// PermanentVersion returns a counter that advances whenever the set of
// permanent faults changes (0 while none exist).
func (inj *Injector) PermanentVersion() int64 { return inj.permVersion }

// LinkFaults returns how many link faults have been injected.
func (inj *Injector) LinkFaults() int64 { return inj.linkFaults }

// RouterFaults returns how many router faults have been injected.
func (inj *Injector) RouterFaults() int64 { return inj.routerFaults }

// FaultsInjected returns the total fault events injected so far.
func (inj *Injector) FaultsInjected() int64 { return inj.linkFaults + inj.routerFaults }
