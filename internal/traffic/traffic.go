// Package traffic implements the synthetic workload generators used in
// the paper's evaluation (uniform random and tornado) plus the other
// standard NoC patterns (transpose, bit-complement, neighbor, hotspot)
// for wider testing. Traffic is only generated between powered-on cores:
// gated cores neither inject nor receive, matching the paper's setup where
// the OS consolidates work onto active cores.
package traffic

import (
	"fmt"
	"strings"

	"flov/internal/sim"
	"flov/internal/topology"
)

// Pattern selects a destination distribution.
type Pattern int

// Supported synthetic patterns.
const (
	Uniform Pattern = iota
	Tornado
	Transpose
	BitComplement
	Neighbor
	Hotspot
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Tornado:
		return "tornado"
	case Transpose:
		return "transpose"
	case BitComplement:
		return "bitcomp"
	case Neighbor:
		return "neighbor"
	case Hotspot:
		return "hotspot"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Patterns lists every supported pattern in canonical order (the order
// Pattern constants are declared). CLIs use it for help text and the
// design-space explorer for its pattern axis; extending the enum
// without extending this list fails the traffic tests.
func Patterns() []Pattern {
	return []Pattern{Uniform, Tornado, Transpose, BitComplement, Neighbor, Hotspot}
}

// ParsePattern converts a case-insensitive name into a Pattern.
func ParsePattern(s string) (Pattern, error) {
	switch strings.ToLower(s) {
	case "uniform", "ur", "uniform_random":
		return Uniform, nil
	case "tornado":
		return Tornado, nil
	case "transpose":
		return Transpose, nil
	case "bitcomp", "bitcomplement", "bit-complement":
		return BitComplement, nil
	case "neighbor", "neighbour":
		return Neighbor, nil
	case "hotspot":
		return Hotspot, nil
	}
	return Uniform, fmt.Errorf("traffic: unknown pattern %q", s)
}

// MarshalText spells the pattern by name, as String does.
func (p Pattern) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses any name ParsePattern accepts; the empty name
// is Uniform, the default pattern.
func (p *Pattern) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*p = Uniform
		return nil
	}
	v, err := ParsePattern(string(text))
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// Generator draws destinations for one pattern over a mesh, restricted to
// the currently active cores.
type Generator struct {
	Pattern  Pattern       //flovsnap:skip immutable generator config
	Mesh     topology.Mesh //flovsnap:skip immutable generator config
	Hotspots []int         // hotspot destinations (Hotspot pattern only) //flovsnap:skip immutable generator config

	activeList []int // cached list of active node ids
	active     []bool
}

// NewGenerator builds a generator. For Hotspot, hotspots must be non-empty.
func NewGenerator(p Pattern, m topology.Mesh, hotspots []int) *Generator {
	return &Generator{Pattern: p, Mesh: m, Hotspots: hotspots}
}

// SetActive installs the current active-core mask (copied).
func (g *Generator) SetActive(active []bool) {
	g.active = append(g.active[:0], active...)
	g.activeList = g.activeList[:0]
	for i, on := range active {
		if on {
			g.activeList = append(g.activeList, i)
		}
	}
}

// isActive reports whether node id may receive traffic.
func (g *Generator) isActive(id int) bool {
	return id >= 0 && id < len(g.active) && g.active[id]
}

// Dest returns a destination for a packet injected at src, or -1 when the
// pattern's partner for src is unavailable (gated) and no packet should
// be generated this cycle.
func (g *Generator) Dest(src int, rng *sim.RNG) int {
	m := g.Mesh
	switch g.Pattern {
	case Uniform:
		if len(g.activeList) < 2 {
			return -1
		}
		for i := 0; i < 64; i++ {
			d := g.activeList[rng.Intn(len(g.activeList))]
			if d != src {
				return d
			}
		}
		return -1
	case Tornado:
		// Half-mesh shift along the X dimension within the row.
		x, y := m.XY(src)
		dx := (x + m.Width/2 - 1) % m.Width
		d := m.ID(dx, y)
		if d == src || !g.isActive(d) {
			return -1
		}
		return d
	case Transpose:
		x, y := m.XY(src)
		d := m.ID(y%m.Width, x%m.Height)
		if d == src || !g.isActive(d) {
			return -1
		}
		return d
	case BitComplement:
		x, y := m.XY(src)
		d := m.ID(m.Width-1-x, m.Height-1-y)
		if d == src || !g.isActive(d) {
			return -1
		}
		return d
	case Neighbor:
		x, y := m.XY(src)
		d := m.ID((x+1)%m.Width, y)
		if d == src || !g.isActive(d) {
			return -1
		}
		return d
	case Hotspot:
		if len(g.Hotspots) == 0 {
			return -1
		}
		for i := 0; i < 64; i++ {
			d := g.Hotspots[rng.Intn(len(g.Hotspots))]
			if d != src && g.isActive(d) {
				return d
			}
		}
		return -1
	}
	return -1
}

// Injector decides, per cycle and per node, whether to inject a packet:
// a Bernoulli process calibrated so the offered load equals rate flits
// per cycle per active node.
type Injector struct {
	RateFlits  float64 // offered load in flits/cycle/node //flovsnap:skip immutable injector config; rng is captured via RNGState
	PacketSize int     //flovsnap:skip immutable injector config; rng is captured via RNGState
	rng        *sim.RNG
}

// NewInjector builds an injector with its own RNG stream.
func NewInjector(rate float64, packetSize int, rng *sim.RNG) *Injector {
	return &Injector{RateFlits: rate, PacketSize: packetSize, rng: rng}
}

// ShouldInject reports whether a new packet is generated this cycle.
func (inj *Injector) ShouldInject() bool {
	return inj.rng.Bernoulli(inj.RateFlits / float64(inj.PacketSize))
}

// RNGState returns the injector's stream position (checkpointing).
func (inj *Injector) RNGState() uint64 { return inj.rng.State() }

// SetRNGState restores the injector's stream position.
func (inj *Injector) SetRNGState(s uint64) { inj.rng.SetState(s) }
