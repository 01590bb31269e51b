// Package config holds the simulation testbed parameters (Table I of the
// FLOV paper) plus knobs for the mechanisms under comparison. A Config is
// plain data: copy it, tweak it, validate it, hand it to network.Build.
package config

import (
	"fmt"
	"strings"
)

// Mechanism selects the power-gating scheme a network is built with.
type Mechanism int

// The four mechanisms compared throughout the paper's evaluation.
const (
	// Baseline is the plain mesh with no router power-gating and YX routing.
	Baseline Mechanism = iota
	// RP is Router Parking: centralized fabric-manager driven parking.
	RP
	// RFLOV is restricted FLOV: no two adjacent routers gated simultaneously.
	RFLOV
	// GFLOV is generalized FLOV: arbitrary runs of routers may be gated.
	GFLOV
)

// String returns the mechanism name as used in figures and CSV output.
func (m Mechanism) String() string {
	switch m {
	case Baseline:
		return "Baseline"
	case RP:
		return "RP"
	case RFLOV:
		return "rFLOV"
	case GFLOV:
		return "gFLOV"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// ParseMechanism converts a case-insensitive name to a Mechanism.
func ParseMechanism(s string) (Mechanism, error) {
	switch strings.ToLower(s) {
	case "baseline", "base":
		return Baseline, nil
	case "rp", "routerparking", "router-parking":
		return RP, nil
	case "rflov", "r-flov", "restricted":
		return RFLOV, nil
	case "gflov", "g-flov", "generalized":
		return GFLOV, nil
	}
	return Baseline, fmt.Errorf("config: unknown mechanism %q", s)
}

// MarshalText spells the mechanism by name, so a field of this type
// encodes as "gFLOV" rather than as its number.
func (m Mechanism) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText parses any name ParseMechanism accepts.
func (m *Mechanism) UnmarshalText(text []byte) error {
	v, err := ParseMechanism(string(text))
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// MechanismCode is a Mechanism as Config carries it. It has no text
// form, so a Config encodes its mechanism as a number ("Mechanism":3),
// the spelling every job hash and cache entry was keyed with.
type MechanismCode int

// String names the mechanism, so a printed Config reads "gFLOV", not 3.
func (c MechanismCode) String() string { return Mechanism(c).String() }

// Mechanisms lists all four in canonical figure order.
func Mechanisms() []Mechanism { return []Mechanism{Baseline, RP, RFLOV, GFLOV} }

// Config captures every parameter of a simulation run. The zero value is
// not usable; start from Default().
//
//flovsnap:skip immutable run configuration: snapshots restore onto a network freshly built from the same config, and restore validates compatibility
type Config struct {
	// Topology.
	Width  int // mesh width (X dimension)
	Height int // mesh height (Y dimension)

	// Router microarchitecture (Table I).
	BufferDepth    int // flits per VC input buffer
	RouterStages   int // router pipeline depth in cycles (3 in the paper)
	VCsPerVNet     int // regular VCs per virtual network
	EscapePerVNet  int // escape VCs per virtual network (deadlock recovery)
	VNets          int // virtual networks (3 for full-system MESI traffic)
	LinkLatency    int // cycles per inter-router link traversal
	PacketSize     int // flits per packet for synthetic workloads
	EjectionQueues int // reassembly slots at the NI (per VC; informational)

	// Clocking / technology (used by the power model).
	ClockHz float64 // router/link clock (2 GHz in the paper)

	// Power gating (Table I).
	GatingOverheadPJ float64 // energy per power-gating transition (17.7 pJ)
	WakeupLatency    int     // cycles to power a router back on (10)

	// FLOV protocol knobs.
	IdleThreshold  int // cycles a gated-core router waits traffic-free before draining
	EscapeTimeout  int // cycles a head flit may stall before escape re-route
	FLOVHopLatency int // cycles spent in a FLOV output latch (1)

	// TransitionTimeout bounds how long a router may sit in Draining or
	// Wakeup waiting for handshake quiescence before aborting and
	// retrying (liveness under heavy gating churn; see DESIGN.md).
	TransitionTimeout int
	// RetryBackoff is the base delay before a timed-out transition is
	// retried (jittered per router id).
	RetryBackoff int

	// Router Parking knobs.
	RPPhase1Base    int // fixed Phase-I reconfiguration cost in cycles
	RPPhase1PerNode int // additional Phase-I cycles per active router (table distribution)

	// Simulation control.
	WarmupCycles  int64  // cycles before statistics collection starts
	TotalCycles   int64  // total simulated cycles for synthetic runs
	DrainCycles   int64  // extra cycles allowed for in-flight packets to drain
	Seed          uint64 // RNG seed; same seed => bit-identical run
	TimelineBinSz int64  // bin width for latency-timeline stats (Fig. 10)

	// Mechanism under test, number-coded (see MechanismCode).
	Mechanism MechanismCode
}

// Default returns the paper's Table I configuration: an 8x8 mesh with
// 3-stage routers, 6-flit buffers, 3 regular + 1 escape VC per vnet,
// 1 vnet (synthetic workloads), 4-flit packets, 2 GHz, 17.7 pJ gating
// overhead and a 10-cycle wakeup latency.
func Default() Config {
	return Config{
		Width:             8,
		Height:            8,
		BufferDepth:       6,
		RouterStages:      3,
		VCsPerVNet:        3,
		EscapePerVNet:     1,
		VNets:             1,
		LinkLatency:       1,
		PacketSize:        4,
		EjectionQueues:    4,
		ClockHz:           2e9,
		GatingOverheadPJ:  17.7,
		WakeupLatency:     10,
		IdleThreshold:     8,
		EscapeTimeout:     64,
		FLOVHopLatency:    1,
		TransitionTimeout: 256,
		RetryBackoff:      32,
		RPPhase1Base:      700,
		RPPhase1PerNode:   2,
		WarmupCycles:      10_000,
		TotalCycles:       100_000,
		DrainCycles:       20_000,
		Seed:              1,
		TimelineBinSz:     1_000,
		Mechanism:         MechanismCode(Baseline),
	}
}

// FullSystem returns the Table I full-system variant: 3 virtual networks
// as used by the MESI protocol traffic classes.
func FullSystem() Config {
	c := Default()
	c.VNets = 3
	return c
}

// VCsTotal returns the total number of VCs per input port
// (regular + escape, across all vnets).
func (c Config) VCsTotal() int { return c.VNets * (c.VCsPerVNet + c.EscapePerVNet) }

// VCBase returns the index of the first VC of virtual network vnet.
func (c Config) VCBase(vnet int) int { return vnet * (c.VCsPerVNet + c.EscapePerVNet) }

// EscapeVC returns the index of the escape VC of virtual network vnet.
// By convention the escape VC is the last VC of each vnet's block.
func (c Config) EscapeVC(vnet int) int {
	return c.VCBase(vnet) + c.VCsPerVNet + c.EscapePerVNet - 1
}

// IsEscapeVC reports whether global VC index vc is an escape VC.
func (c Config) IsEscapeVC(vc int) bool {
	per := c.VCsPerVNet + c.EscapePerVNet
	return vc%per >= c.VCsPerVNet
}

// VNetOf returns the virtual network a global VC index belongs to.
func (c Config) VNetOf(vc int) int { return vc / (c.VCsPerVNet + c.EscapePerVNet) }

// N returns the number of nodes in the mesh.
func (c Config) N() int { return c.Width * c.Height }

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	switch {
	case c.Width < 2 || c.Height < 2:
		return fmt.Errorf("config: mesh must be at least 2x2, got %dx%d", c.Width, c.Height)
	case c.BufferDepth < 1:
		return fmt.Errorf("config: buffer depth must be >= 1, got %d", c.BufferDepth)
	case c.RouterStages < 1:
		return fmt.Errorf("config: router stages must be >= 1, got %d", c.RouterStages)
	case c.VCsPerVNet < 1:
		return fmt.Errorf("config: need at least one regular VC per vnet, got %d", c.VCsPerVNet)
	case c.EscapePerVNet < 1:
		return fmt.Errorf("config: need at least one escape VC per vnet, got %d", c.EscapePerVNet)
	case c.VNets < 1:
		return fmt.Errorf("config: need at least one vnet, got %d", c.VNets)
	case c.VCsTotal() > 64:
		// The router keeps one bit per VC of a port in a uint64 mask.
		return fmt.Errorf("config: at most 64 VCs per port, got %d", c.VCsTotal())
	case c.LinkLatency < 1:
		return fmt.Errorf("config: link latency must be >= 1 cycle, got %d", c.LinkLatency)
	case c.PacketSize < 1:
		return fmt.Errorf("config: packet size must be >= 1 flit, got %d", c.PacketSize)
	case c.PacketSize > c.BufferDepth:
		// Wormhole switching with atomic VC reuse requires a whole packet
		// to fit in one VC buffer for the drain handshake to terminate.
		return fmt.Errorf("config: packet size (%d) must fit in a VC buffer (%d)", c.PacketSize, c.BufferDepth)
	case c.WakeupLatency < 0:
		return fmt.Errorf("config: wakeup latency must be >= 0, got %d", c.WakeupLatency)
	case c.IdleThreshold < 1:
		return fmt.Errorf("config: idle threshold must be >= 1, got %d", c.IdleThreshold)
	case c.EscapeTimeout < 1:
		return fmt.Errorf("config: escape timeout must be >= 1, got %d", c.EscapeTimeout)
	case c.TransitionTimeout < 1:
		return fmt.Errorf("config: transition timeout must be >= 1, got %d", c.TransitionTimeout)
	case c.RetryBackoff < 0:
		return fmt.Errorf("config: retry backoff must be >= 0, got %d", c.RetryBackoff)
	case c.FLOVHopLatency < 1:
		return fmt.Errorf("config: FLOV hop latency must be >= 1, got %d", c.FLOVHopLatency)
	case c.WarmupCycles < 0 || c.TotalCycles <= c.WarmupCycles:
		return fmt.Errorf("config: need TotalCycles (%d) > WarmupCycles (%d) >= 0", c.TotalCycles, c.WarmupCycles)
	case c.ClockHz <= 0:
		return fmt.Errorf("config: clock frequency must be positive, got %g", c.ClockHz)
	}
	return nil
}

// TableI renders the configuration in the shape of the paper's Table I.
func (c Config) TableI() string {
	var b strings.Builder
	row := func(k, v string) { fmt.Fprintf(&b, "%-26s | %s\n", k, v) }
	row("Network Topology", fmt.Sprintf("%dx%d Mesh", c.Width, c.Height))
	row("Input Buffer Depth", fmt.Sprintf("%d flits", c.BufferDepth))
	row("Router", fmt.Sprintf("%d-stage (%d cycles) router", c.RouterStages, c.RouterStages))
	row("Virtual Channel", fmt.Sprintf("%d regular VCs and %d escape VC per vnet, %d vnets",
		c.VCsPerVNet, c.EscapePerVNet, c.VNets))
	row("Packet Size", fmt.Sprintf("%d flits/packet for synthetic workload", c.PacketSize))
	row("Clock Frequency", fmt.Sprintf("%.0f GHz", c.ClockHz/1e9))
	row("Link", fmt.Sprintf("1mm, %d cycle, 16B width", c.LinkLatency))
	row("Power-Gating Parameters", fmt.Sprintf("overhead = %.1fpJ, wakeup latency = %d cycles",
		c.GatingOverheadPJ, c.WakeupLatency))
	row("Baseline Routing", "YX Routing")
	return b.String()
}
