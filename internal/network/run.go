package network

import (
	"fmt"

	"flov/internal/stats"
)

// Results summarizes one simulation run — the numbers every figure plots.
type Results struct {
	Mechanism string
	Pattern   string
	InjRate   float64 // offered load (flits/cycle/node)
	GatedPct  float64 // fraction of cores gated (at the end of the run)

	// Latency (cycles).
	AvgLatency    float64
	AvgNetLatency float64
	Breakdown     stats.Breakdown
	MaxLatency    int64
	P99Latency    int64 // upper bound at power-of-two resolution
	AvgHops       float64
	EscapeFrac    float64

	// Power (watts, averaged over the measurement window).
	StaticPowerW  float64
	DynamicPowerW float64
	TotalPowerW   float64

	// Energy (picojoules over the measurement window).
	StaticEnergyPJ  float64
	DynamicEnergyPJ float64
	TotalEnergyPJ   float64

	// Bookkeeping.
	Packets        int64
	Cycles         int64 // measured cycles
	RunCycles      int64 // total simulated cycles including drain
	Undelivered    int64 // flits still in flight when the run ended
	ThroughputFpc  float64
	Timeline       []stats.TimeBin
	GatedRouters   int // routers power-gated at the end of the run
	PoweredRouters int

	// Reliability (fault-injection runs; zero otherwise).
	OfferedPkts    int64 `json:",omitempty"` // measured packets created
	LostPkts       int64 `json:",omitempty"` // classified losses (dropped)
	DroppedFlits   int64 `json:",omitempty"` // flits discarded by drops
	FaultsInjected int64 `json:",omitempty"`
	LinkFaults     int64 `json:",omitempty"`
	RouterFaults   int64 `json:",omitempty"`
}

// String renders a one-line summary.
func (r Results) String() string {
	return fmt.Sprintf("%s/%s rate=%.3f gated=%.0f%%: lat=%.1f (net %.1f) Pstat=%.1fmW Pdyn=%.1fmW Ptot=%.1fmW pkts=%d undel=%d",
		r.Mechanism, r.Pattern, r.InjRate, r.GatedPct*100,
		r.AvgLatency, r.AvgNetLatency,
		r.StaticPowerW*1e3, r.DynamicPowerW*1e3, r.TotalPowerW*1e3,
		r.Packets, r.Undelivered)
}

// Run executes the standard synthetic experiment: warmup, measurement,
// then a bounded drain so every measured packet is delivered. It returns
// the collected results. Energy/power cover [WarmupCycles, TotalCycles);
// latency covers packets created in that window.
func (n *Network) Run() Results {
	cfg := n.Cfg

	n.RunTo(cfg.TotalCycles)
	n.Ledger.SetEnabled(false)

	// Drain: no new generation; run until empty or the drain budget ends.
	deadline := cfg.TotalCycles + cfg.DrainCycles
	for n.now < deadline && !n.Drained() {
		n.Step()
	}
	return n.collect()
}

// RunTo advances the synthetic run loop until the cycle counter reaches
// target (capped at TotalCycles), handling the warmup boundary exactly
// like Run: a run advanced in increments — with checkpoints saved in
// between — executes the same cycle sequence as an uninterrupted one.
func (n *Network) RunTo(target int64) {
	if target > n.Cfg.TotalCycles {
		target = n.Cfg.TotalCycles
	}
	for n.now < target {
		if n.now == n.Cfg.WarmupCycles {
			n.Ledger.SetEnabled(true)
			n.ejectedAtWarmup = n.Stats.EjectedTotal()
		}
		n.Step()
	}
}

// RunCycles advances exactly c cycles with energy accounting already in
// whatever state it is; used by closed-loop drivers that manage their own
// phases.
func (n *Network) RunCycles(c int64) {
	for i := int64(0); i < c; i++ {
		n.Step()
	}
}

// Collect builds a Results snapshot at the current cycle.
func (n *Network) Collect() Results { return n.collect() }

func (n *Network) collect() Results {
	on, gated := n.Mech.RouterPowerCounts()
	gatedCores := 0
	for _, g := range n.gatedMask {
		if g {
			gatedCores++
		}
	}
	st := n.Stats
	res := Results{
		Mechanism:       n.Mech.Name(),
		InjRate:         n.InjRate,
		GatedPct:        float64(gatedCores) / float64(n.Cfg.N()),
		AvgLatency:      st.AvgLatency(),
		AvgNetLatency:   st.AvgNetworkLatency(),
		Breakdown:       st.LatencyBreakdown(),
		MaxLatency:      st.MaxLatency(),
		P99Latency:      st.Percentile(99),
		AvgHops:         st.AvgHops(),
		EscapeFrac:      st.EscapeFraction(),
		StaticPowerW:    n.Ledger.StaticPowerW(),
		DynamicPowerW:   n.Ledger.DynamicPowerW(),
		TotalPowerW:     n.Ledger.TotalPowerW(),
		StaticEnergyPJ:  n.Ledger.StaticEnergyPJ(),
		DynamicEnergyPJ: n.Ledger.DynamicEnergyPJ(),
		TotalEnergyPJ:   n.Ledger.TotalEnergyPJ(),
		Packets:         st.Count(),
		Cycles:          n.Ledger.Cycles(),
		RunCycles:       n.now,
		Undelivered:     st.InFlightFlits(),
		Timeline:        st.Timeline(),
		GatedRouters:    gated,
		PoweredRouters:  on,
		OfferedPkts:     st.Created(),
		LostPkts:        st.Lost(),
		DroppedFlits:    st.DroppedFlits(),
	}
	if n.Faults != nil {
		res.FaultsInjected = n.Faults.FaultsInjected()
		res.LinkFaults = n.Faults.LinkFaults()
		res.RouterFaults = n.Faults.RouterFaults()
	}
	if n.Gen != nil {
		res.Pattern = n.Gen.Pattern.String()
	}
	if res.Cycles > 0 {
		res.ThroughputFpc = st.AcceptedFlitRate(n.Cfg.TotalCycles, n.Cfg.N(), n.ejectedAtWarmup)
	}
	return res
}
