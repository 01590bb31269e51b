package noc

import (
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"

	"flov/internal/sim"
	"flov/internal/topology"
)

func TestFlitTypes(t *testing.T) {
	if !Head.IsHead() || !HeadTail.IsHead() || Body.IsHead() || Tail.IsHead() {
		t.Fatal("IsHead wrong")
	}
	if !Tail.IsTail() || !HeadTail.IsTail() || Body.IsTail() || Head.IsTail() {
		t.Fatal("IsTail wrong")
	}
	want := map[FlitType]string{Head: "H", Body: "B", Tail: "T", HeadTail: "S"}
	for ft, s := range want {
		if ft.String() != s {
			t.Errorf("%v.String() = %q", ft, ft.String())
		}
	}
}

func TestMakePacketFlits(t *testing.T) {
	p := &Packet{ID: 1, Size: 4}
	fl := MakePacketFlits(p)
	if len(fl) != 4 {
		t.Fatalf("got %d flits", len(fl))
	}
	if fl[0].Type != Head || fl[1].Type != Body || fl[2].Type != Body || fl[3].Type != Tail {
		t.Fatalf("flit train types wrong: %v %v %v %v", fl[0].Type, fl[1].Type, fl[2].Type, fl[3].Type)
	}
	for i, f := range fl {
		if f.Seq != i || f.Pkt != p {
			t.Fatalf("flit %d mis-built", i)
		}
	}
	single := MakePacketFlits(&Packet{Size: 1})
	if len(single) != 1 || single[0].Type != HeadTail {
		t.Fatal("single-flit packet must be HeadTail")
	}
}

func TestPacketLatencies(t *testing.T) {
	p := &Packet{CreatedAt: 100, InjectedAt: 110, EjectedAt: 150}
	if p.TotalLatency() != 50 || p.NetworkLatency() != 40 {
		t.Fatalf("latencies: total=%d net=%d", p.TotalLatency(), p.NetworkLatency())
	}
}

// newInputVC returns an empty input VC with the given buffer capacity.
func newInputVC(index, capacity int) *InputVC {
	v := &InputVC{}
	v.Init(index, capacity)
	return v
}

func TestInputVCFIFO(t *testing.T) {
	v := newInputVC(0, 6)
	p := &Packet{Size: 3}
	fl := MakePacketFlits(p)
	for i := range fl {
		v.Push(&fl[i], int64(i))
	}
	if v.Len() != 3 || v.Empty() {
		t.Fatal("buffer accounting wrong")
	}
	if v.FrontArrived() != 0 {
		t.Fatal("front arrival wrong")
	}
	for i := range fl {
		if got := v.Pop(); got != &fl[i] {
			t.Fatalf("FIFO order broken at %d", i)
		}
	}
	if !v.Empty() {
		t.Fatal("not empty after popping all")
	}
}

func TestInputVCOverflowPanics(t *testing.T) {
	v := newInputVC(0, 2)
	p := &Packet{Size: 3}
	fl := MakePacketFlits(p)
	v.Push(&fl[0], 0)
	v.Push(&fl[1], 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic (credit violation)")
		}
	}()
	v.Push(&fl[2], 0)
}

func TestInputVCResetRequiresEmpty(t *testing.T) {
	v := newInputVC(0, 4)
	v.Push(&MakePacketFlits(&Packet{Size: 1})[0], 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic resetting non-empty VC")
		}
	}()
	v.Reset()
}

func TestInputVCReset(t *testing.T) {
	v := newInputVC(2, 4)
	v.State = VCActive
	v.OutDir = topology.East
	v.OutVC = 3
	v.Reset()
	if v.State != VCIdle || v.OutVC != -1 {
		t.Fatal("Reset incomplete")
	}
}

// Property: interleaved push/pop preserves FIFO order and never exceeds
// capacity bookkeeping.
func TestInputVCFIFOProperty(t *testing.T) {
	err := quick.Check(func(ops []bool) bool {
		v := newInputVC(0, 8)
		var next, expect int
		for _, push := range ops {
			if push && !v.Full() {
				f := &Flit{Seq: next, Pkt: &Packet{}}
				next++
				v.Push(f, 0)
			} else if !push && !v.Empty() {
				if v.Pop().Seq != expect {
					return false
				}
				expect++
			}
		}
		return v.Len() == next-expect
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOutputVCStateCredits(t *testing.T) {
	o := NewOutputVCState(4, 6, true)
	for vc := 0; vc < 4; vc++ {
		if o.Credits[vc] != 6 {
			t.Fatalf("vc %d not full", vc)
		}
	}
	o.Consume(0)
	o.Consume(0)
	if o.Credits[0] != 4 {
		t.Fatal("consume broken")
	}
	o.Return(0)
	if o.Credits[0] != 5 {
		t.Fatal("return broken")
	}
}

func TestOutputVCStateOverflowPanics(t *testing.T) {
	o := NewOutputVCState(2, 3, true)
	defer func() {
		if recover() == nil {
			t.Fatal("expected credit-overflow panic")
		}
	}()
	o.Return(1)
}

func TestOutputVCStateUnderflowPanics(t *testing.T) {
	o := NewOutputVCState(2, 1, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected credit-underflow panic")
		}
	}()
	o.Consume(0)
}

func TestOutputVCStateSyncOps(t *testing.T) {
	o := NewOutputVCState(3, 6, true)
	o.Allocated[1] = true
	o.SetZero()
	for vc := 0; vc < 3; vc++ {
		if o.Credits[vc] != 0 || o.Allocated[vc] {
			t.Fatal("SetZero incomplete")
		}
	}
	o.CopyCounts([]int{2, 4, 6})
	if o.Credits[0] != 2 || o.Credits[1] != 4 || o.Credits[2] != 6 {
		t.Fatal("CopyCounts wrong")
	}
	o.SetFull()
	for vc := 0; vc < 3; vc++ {
		if o.Credits[vc] != 6 {
			t.Fatal("SetFull wrong")
		}
	}
}

func TestVCStateString(t *testing.T) {
	want := map[VCState]string{VCIdle: "Idle", VCRouting: "RC", VCWaitVC: "VA", VCActive: "SA"}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}

// TestInputVCMatchesSliceModel drives an InputVC and a plain slice model
// through random interleavings of pushes, pops, peeks, resets and
// checkpoint round-trips, and checks they agree after each step. It runs
// at a power-of-two depth (4, a ring of 4) and at one that is not (6, a
// ring of 8 with two slots the credit bound never reaches). Pushes wrap
// past the end of the ring many times, and the ring never grows.
func TestInputVCMatchesSliceModel(t *testing.T) {
	for _, depth := range []int{4, 6} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) { testInputVCModel(t, depth) })
	}
}

func testInputVCModel(t *testing.T, depth int) {
	type entry struct {
		seq     int
		arrived int64
	}
	rng := sim.NewRNG(11)
	wraps := 0
	ring := 1 << bits.Len(uint(depth-1))
	for trial := 0; trial < 200; trial++ {
		v := newInputVC(1, depth)
		pushed := 0
		var model []entry
		now := int64(0)
		next := 0
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				if v.Full() {
					continue
				}
				// A ring that takes more pushes than it has slots, without
				// growing, has wrapped.
				if pushed++; pushed == ring+1 {
					wraps++
				}
				v.Push(&Flit{Pkt: &Packet{ID: uint64(next)}, Seq: next}, now)
				model = append(model, entry{next, now})
				next++
			case op < 7:
				if len(model) == 0 {
					if v.Front() != nil {
						t.Fatalf("trial %d step %d: empty VC has a front", trial, step)
					}
					v.Reset()
					continue
				}
				if f := v.Pop(); f.Seq != model[0].seq {
					t.Fatalf("trial %d step %d: Pop = flit %d, model front %d", trial, step, f.Seq, model[0].seq)
				}
				model = model[1:]
			case op < 8:
				// Capture into a packet table and restore into the same
				// VC or a fresh one.
				pt := NewPacketTable()
				s := v.CaptureState(pt)
				pkts := make([]*Packet, len(pt.List))
				for i, p := range pt.List {
					pkts[i] = CapturePacket(p).Materialize()
				}
				if rng.Intn(2) == 0 {
					v, pushed = newInputVC(1, depth), 0
				}
				v.RestoreState(s, pkts)
			default:
				now += int64(rng.Intn(3))
			}
			if v.Len() != len(model) || v.Empty() != (len(model) == 0) || v.Full() != (len(model) == depth) || !v.WindowOK() {
				t.Fatalf("trial %d step %d: Len/Empty/Full/WindowOK disagree with model %v", trial, step, model)
			}
			for i, e := range model {
				if f := v.At(i); f.Seq != e.seq {
					t.Fatalf("trial %d step %d: At(%d) = flit %d, model %v", trial, step, i, f.Seq, model)
				}
			}
			if len(model) > 0 && (v.Front().Seq != model[0].seq || v.FrontArrived() != model[0].arrived) {
				t.Fatalf("trial %d step %d: front disagrees with model %v", trial, step, model)
			}
			if c := v.buf.Cap(); c != 0 && c != ring {
				t.Fatalf("trial %d step %d: ring has %d slots, want %d", trial, step, c, ring)
			}
		}
	}
	if wraps < 100 {
		t.Fatalf("only %d of 200 rings wrapped", wraps)
	}
}
