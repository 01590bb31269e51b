package stats

// CollectorState is the serializable accumulator state of a Collector.
// The window parameters (MeasureStart, BinSize, per-hop costs) are
// derived from the config and rebuilt by the caller.
type CollectorState struct {
	Count         int64
	SumTotal      int64
	SumNet        int64
	SumRouterCyc  int64
	SumLinkCyc    int64
	SumSerCyc     int64
	SumFLOVCyc    int64
	SumHops       int64
	EscapeCount   int64
	MaxLatency    int64
	Histo         []int64
	EjectedFlits  int64
	InjectedFlits int64
	CreatedPkts   int64 `json:",omitempty"`
	LostPkts      int64 `json:",omitempty"`
	DroppedFlits  int64 `json:",omitempty"`
	Bins          []TimeBinState
}

// TimeBinState is the serializable form of one timeline bin (AvgLat is
// derived by Timeline()).
type TimeBinState struct {
	Start  int64
	Count  int64
	SumLat int64
}

// CaptureState copies the collector's accumulators.
func (c *Collector) CaptureState() CollectorState {
	s := CollectorState{
		Count: c.count, SumTotal: c.sumTotal, SumNet: c.sumNet,
		SumRouterCyc: c.sumRouterCyc, SumLinkCyc: c.sumLinkCyc,
		SumSerCyc: c.sumSerCyc, SumFLOVCyc: c.sumFLOVCyc,
		SumHops: c.sumHops, EscapeCount: c.escapeCount,
		MaxLatency:   c.maxLatency,
		Histo:        append([]int64(nil), c.histo...),
		EjectedFlits: c.ejectedFlits, InjectedFlits: c.injectedFlits,
		CreatedPkts: c.createdPkts, LostPkts: c.lostPkts, DroppedFlits: c.droppedFlits,
	}
	for _, b := range c.bins {
		s.Bins = append(s.Bins, TimeBinState{Start: b.Start, Count: b.Count, SumLat: b.SumLat})
	}
	return s
}

// RestoreState overwrites the collector's accumulators.
func (c *Collector) RestoreState(s CollectorState) {
	c.count = s.Count
	c.sumTotal = s.SumTotal
	c.sumNet = s.SumNet
	c.sumRouterCyc = s.SumRouterCyc
	c.sumLinkCyc = s.SumLinkCyc
	c.sumSerCyc = s.SumSerCyc
	c.sumFLOVCyc = s.SumFLOVCyc
	c.sumHops = s.SumHops
	c.escapeCount = s.EscapeCount
	c.maxLatency = s.MaxLatency
	c.histo = append(c.histo[:0], s.Histo...)
	c.ejectedFlits = s.EjectedFlits
	c.injectedFlits = s.InjectedFlits
	c.createdPkts = s.CreatedPkts
	c.lostPkts = s.LostPkts
	c.droppedFlits = s.DroppedFlits
	c.bins = c.bins[:0]
	for _, b := range s.Bins {
		c.bins = append(c.bins, TimeBin{Start: b.Start, Count: b.Count, SumLat: b.SumLat})
	}
}
