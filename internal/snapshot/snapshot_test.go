package snapshot

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"flov/internal/config"
	"flov/internal/core"
	"flov/internal/gating"
	"flov/internal/network"
	"flov/internal/rp"
	"flov/internal/sim"
	"flov/internal/topology"
	"flov/internal/trace"
	"flov/internal/traffic"
)

// testConfig is a small, fast synthetic testbed: a 4x4 mesh with a short
// measurement window, enough traffic to exercise buffers, links, escape
// VCs and the gating protocols.
func testConfig() config.Config {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.WarmupCycles = 300
	cfg.TotalCycles = 2500
	cfg.DrainCycles = 8000
	return cfg
}

// buildSynthetic assembles one synthetic network the way the sweep
// engine does: static mask from a seeded draw, uniform traffic.
func buildSynthetic(t testing.TB, cfg config.Config, mech config.Mechanism) *network.Network {
	t.Helper()
	mesh, err := topology.NewMesh(cfg.Width, cfg.Height)
	if err != nil {
		t.Fatal(err)
	}
	mask := gating.FractionGated(mesh, 0.4, nil, sim.NewRNG(11))
	gen := traffic.NewGenerator(traffic.Uniform, mesh, nil)
	m, err := newMech(mech)
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.New(cfg, m, gating.Static(mask), gen, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func newMech(m config.Mechanism) (network.Mechanism, error) {
	switch m {
	case config.RP:
		return rp.New(), nil
	case config.RFLOV:
		return core.NewRFLOV(), nil
	case config.GFLOV:
		return core.NewGFLOV(), nil
	default:
		return network.NewBaseline(), nil
	}
}

// resultsJSON renders run results canonically for byte comparison.
func resultsJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRoundTripMidRun pins the core property: snapshot at an arbitrary
// mid-run cycle, restore into a freshly built network, run to the end —
// the final statistics are byte-identical to the uninterrupted run, for
// every mechanism and at several snapshot points (before, at and after
// the warmup boundary).
func TestRoundTripMidRun(t *testing.T) {
	for _, mech := range []config.Mechanism{config.Baseline, config.RP, config.RFLOV, config.GFLOV} {
		for _, mid := range []int64{1, 300, 777} {
			t.Run(mech.String()+"/"+string(rune('0'+mid%10)), func(t *testing.T) {
				cfg := testConfig()
				a := buildSynthetic(t, cfg, mech)
				a.RunTo(mid)
				var buf bytes.Buffer
				if err := Save(&buf, a, nil); err != nil {
					t.Fatalf("save at cycle %d: %v", mid, err)
				}

				b := buildSynthetic(t, cfg, mech)
				if err := Restore(bytes.NewReader(buf.Bytes()), b, nil); err != nil {
					t.Fatalf("restore at cycle %d: %v", mid, err)
				}
				if d, err := Diff(a, b, nil, nil); err != nil {
					t.Fatal(err)
				} else if d != "" {
					t.Fatalf("restored network diverges immediately: %s", d)
				}

				// a continues uninterrupted; b continues from the restore.
				ra := resultsJSON(t, a.Run())
				rb := resultsJSON(t, b.Run())
				if !bytes.Equal(ra, rb) {
					t.Fatalf("mech %s snapshot at %d: final results differ\nuninterrupted: %s\nrestored:      %s",
						mech, mid, ra, rb)
				}
			})
		}
	}
}

// TestRoundTripPARSEC does the same for a closed-loop full-system run:
// the driver's MSHR windows, pending replies and phase cursor must
// survive the round trip too.
func TestRoundTripPARSEC(t *testing.T) {
	cfg := config.FullSystem()
	cfg.WarmupCycles = 0
	cfg.TotalCycles = 1 << 30
	prof, ok := trace.ProfileByName("bodytrack")
	if !ok {
		t.Fatal("bodytrack profile missing")
	}
	prof.QuotaPerCore = 30
	prof.Phases = 2

	build := func() (*network.Network, *trace.Driver) {
		n, err := network.New(cfg, core.NewGFLOV(), nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return n, trace.NewDriver(n, prof, 7)
	}

	na, da := build()
	const mid, max = 2000, 2_000_000
	da.RunUntil(mid)
	var buf bytes.Buffer
	if err := Save(&buf, na, da); err != nil {
		t.Fatal(err)
	}

	nb, db := build()
	if err := Restore(bytes.NewReader(buf.Bytes()), nb, db); err != nil {
		t.Fatal(err)
	}
	if d, err := Diff(na, nb, da, db); err != nil {
		t.Fatal(err)
	} else if d != "" {
		t.Fatalf("restored driver state diverges immediately: %s", d)
	}

	da.RunUntil(max)
	db.RunUntil(max)
	oa := resultsJSON(t, da.Outcome())
	ob := resultsJSON(t, db.Outcome())
	if !bytes.Equal(oa, ob) {
		t.Fatalf("outcomes differ\nuninterrupted: %s\nrestored:      %s", oa, ob)
	}
	if !da.Finished() {
		t.Fatal("benchmark did not complete")
	}
}

// TestRestoreWarmDifferentWindow pins warm-start soundness: a snapshot
// taken at the warmup boundary of one run seeds a run with a different
// measurement window, and the result is byte-identical to running that
// window cold.
func TestRestoreWarmDifferentWindow(t *testing.T) {
	donorCfg := testConfig()
	donor := buildSynthetic(t, donorCfg, config.GFLOV)
	donor.RunTo(donorCfg.WarmupCycles)
	var buf bytes.Buffer
	if err := Save(&buf, donor, nil); err != nil {
		t.Fatal(err)
	}

	target := testConfig()
	target.TotalCycles = 3100 // different window than the donor's 2500

	warm := buildSynthetic(t, target, config.GFLOV)
	if err := RestoreWarm(bytes.NewReader(buf.Bytes()), warm); err != nil {
		t.Fatal(err)
	}
	cold := buildSynthetic(t, target, config.GFLOV)

	rw := resultsJSON(t, warm.Run())
	rc := resultsJSON(t, cold.Run())
	if !bytes.Equal(rw, rc) {
		t.Fatalf("warm-started run differs from cold run\nwarm: %s\ncold: %s", rw, rc)
	}
}

// TestRestoreRejectsMismatchedTarget ensures a snapshot never lands on a
// network built differently.
func TestRestoreRejectsMismatchedTarget(t *testing.T) {
	cfg := testConfig()
	a := buildSynthetic(t, cfg, config.Baseline)
	a.RunTo(100)
	var buf bytes.Buffer
	if err := Save(&buf, a, nil); err != nil {
		t.Fatal(err)
	}

	other := testConfig()
	other.TotalCycles = 4000
	if err := Restore(bytes.NewReader(buf.Bytes()), buildSynthetic(t, other, config.Baseline), nil); err == nil {
		t.Fatal("restore accepted a snapshot with a different config")
	}
	if err := Restore(bytes.NewReader(buf.Bytes()), buildSynthetic(t, cfg, config.GFLOV), nil); err == nil {
		t.Fatal("restore accepted a snapshot from a different mechanism")
	}
}

// TestCorruptionRejected covers the integrity paths: truncation, bit
// flips, bad magic, container-format and schema version mismatches all
// produce diagnostics, never a silently loaded snapshot.
func TestCorruptionRejected(t *testing.T) {
	cfg := testConfig()
	n := buildSynthetic(t, cfg, config.GFLOV)
	n.RunTo(500)
	var buf bytes.Buffer
	if err := Save(&buf, n, nil); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	load := func(data []byte) error {
		_, err := Load(bytes.NewReader(data))
		return err
	}

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{4, len(good) / 2, len(good) - 3} {
			if err := load(good[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncation at %d: got %v, want ErrCorrupt", cut, err)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for _, pos := range []int{40, len(good) / 2, len(good) - 10} {
			bad := append([]byte(nil), good...)
			bad[pos] ^= 0x40
			if err := load(bad); err == nil {
				t.Fatalf("bit flip at %d silently loaded", pos)
			}
		}
	})
	t.Run("badmagic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xff
		if err := load(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("formatversion", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[8] = 0xee // u32le container format lives right after the magic
		if err := load(bad); !errors.Is(err, ErrSchema) {
			t.Fatalf("got %v, want ErrSchema", err)
		}
	})
	t.Run("schemaversion", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		// The schema string follows the 4-byte format: uvarint length,
		// then the bytes themselves. Corrupt its first character.
		bad[13] ^= 0x20
		if err := load(bad); !errors.Is(err, ErrSchema) {
			t.Fatalf("got %v, want ErrSchema", err)
		}
	})
}

// TestDiffPinpointsFirstMismatch checks the divergence checker names the
// exact field path, not just "states differ".
func TestDiffPinpointsFirstMismatch(t *testing.T) {
	cfg := testConfig()
	a := buildSynthetic(t, cfg, config.Baseline)
	b := buildSynthetic(t, cfg, config.Baseline)
	a.RunTo(50)
	b.RunTo(50)
	if d, err := Diff(a, b, nil, nil); err != nil || d != "" {
		t.Fatalf("identical runs diff as %q (err %v)", d, err)
	}
	b.Step()
	if d, err := Diff(a, b, nil, nil); err != nil {
		t.Fatal(err)
	} else if d == "" {
		t.Fatal("networks one cycle apart reported identical")
	}

	// A controlled single-field mutation must be named exactly.
	sa, err := Capture(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Capture(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb.Net.Routers[3].Traversals++
	if d := DiffStates(sa, sb); d == "" || !strings.HasPrefix(d, "Net.Routers[3].Traversals") {
		t.Fatalf("first mismatch should be Net.Routers[3].Traversals, got %q", d)
	}
}

// TestInvariantsAfterRestore drives the full invariant checker on every
// cycle of a restored network: conservation of flits and credits must
// hold from the very first post-restore cycle.
func TestInvariantsAfterRestore(t *testing.T) {
	for _, mech := range []config.Mechanism{config.RP, config.GFLOV} {
		cfg := testConfig()
		a := buildSynthetic(t, cfg, mech)
		a.RunTo(700)
		var buf bytes.Buffer
		if err := Save(&buf, a, nil); err != nil {
			t.Fatal(err)
		}
		b := buildSynthetic(t, cfg, mech)
		if err := Restore(bytes.NewReader(buf.Bytes()), b, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			b.CheckInvariants()
			b.Step()
		}
	}
}

// snapChildEnv flips TestEquivalenceAcrossProcesses into its child role:
// restore the snapshot named by FLOV_SNAP_IN in a fresh process, run to
// completion, write the final results JSON to FLOV_SNAP_OUT.
const (
	snapChildIn  = "FLOV_SNAP_IN"
	snapChildOut = "FLOV_SNAP_OUT"
)

// TestEquivalenceAcrossProcesses proves a snapshot is self-contained: a
// fresh process (fresh ASLR, fresh map seeds) restores the file and
// produces byte-identical final statistics to the uninterrupted run in
// this process.
func TestEquivalenceAcrossProcesses(t *testing.T) {
	cfg := testConfig()
	if in := os.Getenv(snapChildIn); in != "" {
		f, err := os.Open(in)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		n := buildSynthetic(t, cfg, config.GFLOV)
		if err := Restore(f, n, nil); err != nil {
			t.Fatalf("child restore: %v", err)
		}
		if err := os.WriteFile(os.Getenv(snapChildOut), resultsJSON(t, n.Run()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if testing.Short() {
		t.Skip("skipping child go test invocation in -short mode")
	}

	a := buildSynthetic(t, cfg, config.GFLOV)
	a.RunTo(900)
	dir := t.TempDir()
	snapFile := filepath.Join(dir, "mid.snap")
	f, err := os.Create(snapFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(f, a, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want := resultsJSON(t, a.Run())

	outFile := filepath.Join(dir, "results.json")
	cmd := exec.Command("go", "test", "-count=1", "-run", "^TestEquivalenceAcrossProcesses$", ".")
	cmd.Env = append(os.Environ(), snapChildIn+"="+snapFile, snapChildOut+"="+outFile)
	if combined, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child go test: %v\n%s", err, combined)
	}
	got, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("fresh-process restore diverged\nparent: %s\nchild:  %s", want, got)
	}
}
