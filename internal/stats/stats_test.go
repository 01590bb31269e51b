package stats

import (
	"encoding/json"
	"math"
	"testing"

	"flov/internal/noc"
)

func pkt(created, injected, ejected int64, activeHops, flovHops, linkHops, size int) *noc.Packet {
	return &noc.Packet{
		CreatedAt: created, InjectedAt: injected, EjectedAt: ejected,
		ActiveHops: activeHops, FLOVHops: flovHops, LinkHops: linkHops, Size: size,
	}
}

func TestCollectorAverages(t *testing.T) {
	c := NewCollector(0, 0, 3, 1)
	c.Record(pkt(0, 2, 30, 4, 0, 3, 4))
	c.Record(pkt(10, 11, 50, 6, 2, 5, 4))
	if c.Count() != 2 {
		t.Fatalf("count = %d", c.Count())
	}
	if got := c.AvgLatency(); math.Abs(got-35) > 1e-9 {
		t.Fatalf("avg latency = %v", got)
	}
	if got := c.AvgNetworkLatency(); math.Abs(got-33.5) > 1e-9 {
		t.Fatalf("avg net latency = %v", got)
	}
	if got := c.AvgHops(); math.Abs(got-6) > 1e-9 {
		t.Fatalf("avg hops = %v", got)
	}
	if c.MaxLatency() != 40 {
		t.Fatalf("max latency = %d", c.MaxLatency())
	}
}

func TestWarmupExclusion(t *testing.T) {
	c := NewCollector(100, 0, 3, 1)
	c.Record(pkt(50, 51, 90, 2, 0, 1, 4)) // warmup packet
	c.Record(pkt(150, 151, 190, 2, 0, 1, 4))
	if c.Count() != 1 {
		t.Fatalf("warmup packet counted: %d", c.Count())
	}
}

func TestBreakdownMath(t *testing.T) {
	c := NewCollector(0, 0, 3, 1)
	// 4 active routers (12 cyc), 2 FLOV hops (2 cyc), 5 links, size 4
	// (3 ser cyc): minimum 22; total 30 => contention 8.
	c.Record(pkt(0, 0, 30, 4, 2, 5, 4))
	b := c.LatencyBreakdown()
	if b.Router != 12 || b.FLOV != 2 || b.Link != 5 || b.Serialization != 3 {
		t.Fatalf("breakdown: %+v", b)
	}
	if math.Abs(b.Contention-8) > 1e-9 {
		t.Fatalf("contention = %v", b.Contention)
	}
	if math.Abs(b.Total()-30) > 1e-9 {
		t.Fatalf("total = %v", b.Total())
	}
}

func TestBreakdownClampsNegativeContention(t *testing.T) {
	c := NewCollector(0, 0, 3, 1)
	c.Record(pkt(0, 0, 5, 4, 0, 5, 4)) // impossible fast packet
	if b := c.LatencyBreakdown(); b.Contention < 0 {
		t.Fatalf("contention must clamp at 0, got %v", b.Contention)
	}
}

func TestEscapeFraction(t *testing.T) {
	c := NewCollector(0, 0, 3, 1)
	p := pkt(0, 0, 10, 1, 0, 0, 1)
	p.Escape = true
	c.Record(p)
	c.Record(pkt(0, 0, 10, 1, 0, 0, 1))
	if got := c.EscapeFraction(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("escape fraction = %v", got)
	}
}

func TestTimelineBins(t *testing.T) {
	c := NewCollector(0, 100, 3, 1)
	c.Record(pkt(0, 0, 50, 1, 0, 0, 1))      // bin 0, lat 50
	c.Record(pkt(0, 0, 150, 1, 0, 0, 1))     // bin 1, lat 150
	c.Record(pkt(100, 100, 180, 1, 0, 0, 1)) // bin 1, lat 80
	bins := c.Timeline()
	if len(bins) != 2 {
		t.Fatalf("bins = %d", len(bins))
	}
	if bins[0].Count != 1 || math.Abs(bins[0].AvgLat-50) > 1e-9 {
		t.Fatalf("bin 0: %+v", bins[0])
	}
	if bins[1].Count != 2 || math.Abs(bins[1].AvgLat-115) > 1e-9 {
		t.Fatalf("bin 1: %+v", bins[1])
	}
	if bins[1].Start != 100 {
		t.Fatalf("bin 1 start = %d", bins[1].Start)
	}
}

func TestTimelineDisabled(t *testing.T) {
	c := NewCollector(0, 0, 3, 1)
	c.Record(pkt(0, 0, 50, 1, 0, 0, 1))
	if len(c.Timeline()) != 0 {
		t.Fatal("timeline recorded with bin size 0")
	}
}

func TestFlitAccounting(t *testing.T) {
	c := NewCollector(0, 0, 3, 1)
	c.NoteInjectedFlits(10)
	c.NoteEjectedFlits(4)
	if c.InFlightFlits() != 6 {
		t.Fatalf("in flight = %d", c.InFlightFlits())
	}
	if c.EjectedTotal() != 4 {
		t.Fatalf("ejected total = %d", c.EjectedTotal())
	}
	// Warmup traffic excluded via the snapshot argument.
	if rate := c.AcceptedFlitRate(100, 2, 2); math.Abs(rate-0.01) > 1e-9 {
		t.Fatalf("windowed rate = %v", rate)
	}
	if rate := c.AcceptedFlitRate(100, 2, 0); math.Abs(rate-0.02) > 1e-9 {
		t.Fatalf("accepted rate = %v", rate)
	}
}

func TestEmptyCollector(t *testing.T) {
	c := NewCollector(0, 0, 3, 1)
	if c.AvgLatency() != 0 || c.EscapeFraction() != 0 || c.AvgHops() != 0 {
		t.Fatal("empty collector must report zeros")
	}
}

func TestPercentiles(t *testing.T) {
	c := NewCollector(0, 0, 3, 1)
	// 99 packets at latency 10, one at 1000.
	for i := 0; i < 99; i++ {
		c.Record(pkt(0, 0, 10, 1, 0, 0, 1))
	}
	c.Record(pkt(0, 0, 1000, 1, 0, 0, 1))
	p50 := c.Percentile(50)
	if p50 < 10 || p50 > 16 {
		t.Fatalf("p50 = %d, want a tight power-of-two bound on 10", p50)
	}
	if c.Percentile(100) != 1000 {
		t.Fatalf("p100 = %d", c.Percentile(100))
	}
	if got := c.Percentile(99); got > 16 {
		t.Fatalf("p99 = %d, should still be in the bulk bucket", got)
	}
	h := c.Histogram()
	var total int64
	for _, n := range h {
		total += n
	}
	if total != 100 {
		t.Fatalf("histogram holds %d packets", total)
	}
}

func TestPercentileEmpty(t *testing.T) {
	c := NewCollector(0, 0, 3, 1)
	if c.Percentile(99) != 0 {
		t.Fatal("empty collector percentile must be 0")
	}
}

// TestTimeBinJSONPinned pins the bytes a bin encodes to, which cached
// rows and stream lines carry, with and without the accumulator, and
// that decoding them restores the bin exactly.
func TestTimeBinJSONPinned(t *testing.T) {
	for _, tc := range []struct {
		bin  TimeBin
		want string
	}{
		{TimeBin{Start: 2000, Count: 97, AvgLat: 20.216494845360824, SumLat: 1961},
			`{"start":2000,"count":97,"avg_lat":20.216494845360824,"sum_lat":1961}`},
		{TimeBin{Start: 1000}, `{"start":1000,"count":0,"avg_lat":0}`},
	} {
		got, err := json.Marshal(tc.bin)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("Marshal(%+v) = %s, want %s", tc.bin, got, tc.want)
		}
		var back TimeBin
		if err := json.Unmarshal([]byte(tc.want), &back); err != nil {
			t.Fatal(err)
		}
		if back != tc.bin {
			t.Errorf("Unmarshal(%s) = %+v, want %+v", tc.want, back, tc.bin)
		}
	}
}
