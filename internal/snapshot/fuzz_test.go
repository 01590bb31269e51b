package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"flov/internal/config"
	"flov/internal/network"
	"flov/internal/noc"
	"flov/internal/topology"
)

// fuzzSections returns the sections of a real snapshot: a gFLOV network
// on the 4x4 testbed saved at cycle 421, with five routers asleep, a
// flit in a FLOV latch, flits buffered and on the wire, and two NIs
// mid-injection.
func fuzzSections(f *testing.F) []section {
	f.Helper()
	n := buildSynthetic(f, testConfig(), config.GFLOV)
	n.RunTo(421)
	st, err := Capture(n, nil)
	if err != nil {
		f.Fatal(err)
	}
	var secs []section
	for _, s := range []struct {
		name string
		v    any
	}{
		{"meta", st.Meta}, {"packets", st.Packets}, {"net", st.Net},
		{"chans", st.Chans}, {"flov", *st.FLOV},
	} {
		payload, err := encode(s.v)
		if err != nil {
			f.Fatal(err)
		}
		secs = append(secs, section{name: s.name, payload: payload})
	}
	return secs
}

// container renders sections as snapshot bytes.
func container(tb testing.TB, secs []section) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := writeContainer(&buf, secs); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoad feeds arbitrary bytes to Load: it returns an error or a
// decoded state, and never panics.
func FuzzLoad(f *testing.F) {
	secs := fuzzSections(f)
	f.Add(container(f, secs))
	f.Add(container(f, secs[:2]))
	f.Add([]byte(magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		if st, err := Load(bytes.NewReader(data)); err == nil && st == nil {
			t.Fatal("Load returned neither a state nor an error")
		}
	})
}

// FuzzRestore replaces one section of a real snapshot with fuzzed bytes
// under a valid CRC, so mutations reach the decoders and the restore
// logic rather than stopping at the checksum. Restoring into a fresh
// network returns an error or succeeds, and never panics. A restored
// network holds no input VC over its buffer depth, saves again, and a
// second Save→Restore→Save round trip is byte-stable.
func FuzzRestore(f *testing.F) {
	base := fuzzSections(f)
	for i, s := range base {
		f.Add(uint8(i), s.payload)
	}
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		secs := slices.Clone(base)
		secs[int(which)%len(secs)].payload = payload
		cfg := testConfig()
		n := buildSynthetic(t, cfg, config.GFLOV)
		if err := Restore(bytes.NewReader(container(t, secs)), n, nil); err != nil {
			return
		}
		if msg := overfullVC(n); msg != "" {
			t.Fatalf("restore accepted %s", msg)
		}
		var first bytes.Buffer
		if err := Save(&first, n, nil); err != nil {
			t.Fatalf("save after an accepted restore: %v", err)
		}
		again := buildSynthetic(t, cfg, config.GFLOV)
		if err := Restore(bytes.NewReader(first.Bytes()), again, nil); err != nil {
			t.Fatalf("restoring a saved snapshot: %v", err)
		}
		var second bytes.Buffer
		if err := Save(&second, again, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("Save→Restore→Save is not byte-stable")
		}
	})
}

// overfullVC names the first input VC of n holding more flits than its
// buffer depth, or returns "". The credit protocol never lets a VC hold
// more, so a restore that leaves one has accepted a corrupt snapshot.
func overfullVC(n *network.Network) string {
	for _, r := range n.Routers {
		for d := topology.Direction(0); d < topology.NumPorts; d++ {
			for v := 0; v < n.Cfg.VCsTotal(); v++ {
				if ivc := r.InVC(d, v); ivc.Len() > ivc.Capacity() {
					return fmt.Sprintf("router %d port %s vc %d holding %d flits, depth %d", r.ID, d, v, ivc.Len(), ivc.Capacity())
				}
			}
		}
	}
	return ""
}

// An input VC holding more flits than the buffer depth is corrupt: it
// is rejected before any state is applied.
func TestRestoreRejectsOverfullVC(t *testing.T) {
	cfg := testConfig()
	src := buildSynthetic(t, cfg, config.GFLOV)
	src.RunTo(421)
	st, err := Capture(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	vc := &st.Net.Routers[0].In[0][0]
	for len(vc.Flits) <= cfg.BufferDepth {
		vc.Flits = append(vc.Flits, noc.FlitState{Pkt: 0, Type: noc.Body, Seq: len(vc.Flits), VC: 0})
		vc.Arrived = append(vc.Arrived, 421)
	}
	n := buildSynthetic(t, cfg, config.GFLOV)
	if err := st.apply(n, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overfull VC: restore returned %v, want ErrCorrupt", err)
	}
	if msg := overfullVC(n); msg != "" {
		t.Fatalf("rejected restore still applied %s", msg)
	}
}

// Out-of-range enum values and an impossible injection train are
// rejected with an error instead of being applied (the first two would
// index past a state table, the last allocate a train of -1 flits).
func TestRestoreRejectsOutOfRangeState(t *testing.T) {
	cfg := testConfig()
	src := buildSynthetic(t, cfg, config.GFLOV)
	src.RunTo(421)
	for name, corrupt := range map[string]func(st *State){
		"vc state":    func(st *State) { st.Net.Routers[0].In[0][0].State = 9 },
		"power state": func(st *State) { st.FLOV.Routers[5].State = 7 },
		"train size": func(st *State) {
			for _, ni := range st.Net.NIs {
				for _, tx := range ni.Sending {
					if tx.Present {
						st.Packets[tx.Pkt].Size = -1
						return
					}
				}
			}
			t.Fatal("no NI mid-injection at the capture cycle")
		},
	} {
		st, err := Capture(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(st)
		if err := st.apply(buildSynthetic(t, cfg, config.GFLOV), nil); err == nil {
			t.Errorf("%s: corrupt snapshot restored without error", name)
		}
	}
}
