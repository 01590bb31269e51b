// Package stats collects the measurements the paper's figures report:
// average packet latency with the Fig. 8 breakdown (router, link,
// serialization, contention, FLOV), throughput, latency histograms and
// the Fig. 10 latency-over-time series.
package stats

import (
	"math"

	"flov/internal/noc"
)

// Breakdown is the Fig. 8 latency decomposition, in cycles (averages).
type Breakdown struct {
	Router        float64 // active-router pipeline cycles (hops x stages)
	Link          float64 // link traversal cycles
	Serialization float64 // flits per packet - 1
	FLOV          float64 // cycles spent in FLOV latches
	Contention    float64 // everything else: blocking + source queuing
}

// Total returns the sum of all components.
func (b Breakdown) Total() float64 {
	return b.Router + b.Link + b.Serialization + b.FLOV + b.Contention
}

// TimeBin is one bin of the latency timeline (Fig. 10). Its JSON form
// carries the accumulator too, so a serialized bin (e.g. in the sweep
// result cache) deserializes to an identical value.
type TimeBin struct {
	Start  int64   `json:"start"`             // first cycle of the bin
	Count  int64   `json:"count"`             // packets ejected in the bin
	AvgLat float64 `json:"avg_lat"`           // average total latency of those packets //flovsnap:skip derived from SumLat/Count when Timeline renders
	SumLat int64   `json:"sum_lat,omitempty"` // summed total latency of those packets
}

// Collector accumulates per-packet statistics. Packets created before
// MeasureStart contribute to the timeline but not to the aggregate
// averages (warmup exclusion).
type Collector struct {
	MeasureStart int64 // first cycle of the measurement window //flovsnap:skip immutable measurement window config
	BinSize      int64 // timeline bin width; 0 disables the timeline //flovsnap:skip immutable measurement window config

	RouterStages   int // cycles per active router hop //flovsnap:skip immutable latency-model parameter
	FLOVHopLatency int // cycles per FLOV latch hop //flovsnap:skip immutable latency-model parameter

	count         int64
	sumTotal      int64
	sumNet        int64
	sumRouterCyc  int64
	sumLinkCyc    int64
	sumSerCyc     int64
	sumFLOVCyc    int64
	sumHops       int64
	escapeCount   int64
	maxLatency    int64
	histo         []int64 // power-of-two latency buckets
	ejectedFlits  int64
	injectedFlits int64

	// Reliability accounting (fault-injection runs; all zero otherwise).
	createdPkts  int64 // packets created in the measurement window
	lostPkts     int64 // windowed packets dropped as classified losses
	droppedFlits int64 // all-time flits discarded by drops (conservation)

	bins []TimeBin
}

// NewCollector returns a collector with the given measurement window
// start, timeline bin size and per-hop cycle costs.
func NewCollector(measureStart, binSize int64, routerStages, flovHopLatency int) *Collector {
	return &Collector{
		MeasureStart:   measureStart,
		BinSize:        binSize,
		RouterStages:   routerStages,
		FLOVHopLatency: flovHopLatency,
	}
}

// NoteInjectedFlits counts flits entering the network (drain detection).
func (c *Collector) NoteInjectedFlits(n int) { c.injectedFlits += int64(n) }

// NoteEjectedFlits counts flits leaving the network.
func (c *Collector) NoteEjectedFlits(n int) { c.ejectedFlits += int64(n) }

// NotePacketCreated counts a packet entering the system (source queue
// included) at the given cycle; warmup packets are excluded like every
// other windowed aggregate. Delivery probability is Count()/Created().
func (c *Collector) NotePacketCreated(createdAt int64) {
	if createdAt >= c.MeasureStart {
		c.createdPkts++
	}
}

// NotePacketLost records a classified loss: a packet the fault subsystem
// dropped because its destination is unreachable (or it was wedged past
// the drop timeout). flits is how many already-injected flits were
// discarded with it — they leave the in-flight count so flit conservation
// holds; packets dropped straight from a source queue pass 0.
func (c *Collector) NotePacketLost(p *noc.Packet, flits int) {
	c.droppedFlits += int64(flits)
	if p.CreatedAt >= c.MeasureStart {
		c.lostPkts++
	}
}

// InFlightFlits returns flits injected but not yet ejected or dropped.
func (c *Collector) InFlightFlits() int64 { return c.injectedFlits - c.ejectedFlits - c.droppedFlits }

// Created returns measured (post-warmup) packets created.
func (c *Collector) Created() int64 { return c.createdPkts }

// Lost returns measured (post-warmup) packets dropped as classified
// losses.
func (c *Collector) Lost() int64 { return c.lostPkts }

// DroppedFlits returns all-time flits discarded by fault drops.
func (c *Collector) DroppedFlits() int64 { return c.droppedFlits }

// EjectedTotal returns all-time ejected flits (the caller snapshots this
// at the warmup boundary to compute windowed throughput).
func (c *Collector) EjectedTotal() int64 { return c.ejectedFlits }

// Record ingests a delivered packet.
func (c *Collector) Record(p *noc.Packet) {
	lat := p.TotalLatency()
	if c.BinSize > 0 {
		idx := p.EjectedAt / c.BinSize
		for int64(len(c.bins)) <= idx {
			c.bins = append(c.bins, TimeBin{Start: int64(len(c.bins)) * c.BinSize})
		}
		b := &c.bins[idx]
		b.Count++
		b.SumLat += lat
	}
	if p.CreatedAt < c.MeasureStart {
		return
	}
	c.count++
	c.sumTotal += lat
	c.sumNet += p.NetworkLatency()
	c.sumRouterCyc += int64(p.ActiveHops * c.RouterStages)
	c.sumLinkCyc += int64(p.LinkHops)
	c.sumSerCyc += int64(p.Size - 1)
	c.sumFLOVCyc += int64(p.FLOVHops * c.FLOVHopLatency)
	c.sumHops += int64(p.ActiveHops + p.FLOVHops)
	if p.Escape {
		c.escapeCount++
	}
	if lat > c.maxLatency {
		c.maxLatency = lat
	}
	b := bucketOf(lat)
	for len(c.histo) <= b {
		c.histo = append(c.histo, 0)
	}
	c.histo[b]++
}

// bucketOf returns the power-of-two histogram bucket for a latency:
// bucket i covers [2^i, 2^(i+1)).
func bucketOf(lat int64) int {
	b := 0
	for lat > 1 {
		lat >>= 1
		b++
	}
	return b
}

// Count returns measured (post-warmup) packets delivered.
func (c *Collector) Count() int64 { return c.count }

// AvgLatency returns average total latency (cycles) of measured packets.
func (c *Collector) AvgLatency() float64 { return c.avg(c.sumTotal) }

// AvgNetworkLatency returns the average latency excluding source queuing.
func (c *Collector) AvgNetworkLatency() float64 { return c.avg(c.sumNet) }

// AvgHops returns the average router traversals (active + FLOV).
func (c *Collector) AvgHops() float64 { return c.avg(c.sumHops) }

// MaxLatency returns the worst measured packet latency.
func (c *Collector) MaxLatency() int64 { return c.maxLatency }

// EscapeFraction returns the fraction of measured packets that used the
// escape subnetwork.
func (c *Collector) EscapeFraction() float64 {
	if c.count == 0 {
		return 0
	}
	return float64(c.escapeCount) / float64(c.count)
}

// LatencyBreakdown returns the Fig. 8 decomposition of AvgLatency.
func (c *Collector) LatencyBreakdown() Breakdown {
	b := Breakdown{
		Router:        c.avg(c.sumRouterCyc),
		Link:          c.avg(c.sumLinkCyc),
		Serialization: c.avg(c.sumSerCyc),
		FLOV:          c.avg(c.sumFLOVCyc),
	}
	b.Contention = math.Max(0, c.AvgLatency()-b.Router-b.Link-b.Serialization-b.FLOV)
	return b
}

// Timeline returns the latency-over-time bins with averages filled in.
func (c *Collector) Timeline() []TimeBin {
	out := make([]TimeBin, len(c.bins))
	for i, b := range c.bins {
		out[i] = b
		if b.Count > 0 {
			out[i].AvgLat = float64(b.SumLat) / float64(b.Count)
		}
	}
	return out
}

// AcceptedFlitRate returns ejected flits per cycle per node over the
// window [MeasureStart, now), given the ejected-flit count snapshotted at
// the start of the window.
func (c *Collector) AcceptedFlitRate(now int64, nodes int, ejectedAtStart int64) float64 {
	dur := now - c.MeasureStart
	if dur <= 0 || nodes == 0 {
		return 0
	}
	return float64(c.ejectedFlits-ejectedAtStart) / float64(dur) / float64(nodes)
}

// Percentile returns an upper bound on the p-th percentile latency
// (p in [0,100]), at power-of-two bucket resolution.
func (c *Collector) Percentile(p float64) int64 {
	if c.count == 0 {
		return 0
	}
	target := int64(math.Ceil(p / 100 * float64(c.count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for b, n := range c.histo {
		cum += n
		if cum >= target {
			hi := int64(1) << (uint(b) + 1)
			if hi > c.maxLatency {
				hi = c.maxLatency
			}
			return hi
		}
	}
	return c.maxLatency
}

// Histogram returns the power-of-two latency buckets: entry i counts
// measured packets with latency in [2^i, 2^(i+1)).
func (c *Collector) Histogram() []int64 { return append([]int64(nil), c.histo...) }

func (c *Collector) avg(sum int64) float64 {
	if c.count == 0 {
		return 0
	}
	return float64(sum) / float64(c.count)
}
