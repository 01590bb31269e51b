package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// snapfixPath is the import path the statecov fixture is mounted at.
const snapfixPath = "flov/internal/snapfix"

// loadSnapcovModule mounts the statecov fixture as a module package and
// loads it beside the snapshot package, so statecov's drivers are in the
// load set (the real package adds no findings of its own).
func loadSnapcovModule(t *testing.T) *Module {
	t.Helper()
	return loadWithSnapshot(t, map[string]string{snapfixPath: "snapcov"})
}

// loadWithSnapshot loads the statecov fixture and flov/internal/snapshot
// through a loader with the given fixture mounts.
func loadWithSnapshot(t *testing.T, mounts map[string]string) *Module {
	t.Helper()
	loader := newDirLoader(t, mounts)
	for _, path := range []string{snapfixPath, "flov/internal/snapshot"} {
		if _, err := loader.Load(path); err != nil {
			t.Fatal(err)
		}
	}
	return NewModule(loader.ModulePath, loader.Fset, loader.Packages())
}

// TestStatecovFixture checks statecov against the marked fixture: the
// uncaptured fields (root-level and through the type walk), the
// missing-restore half-pair, the reasonless skip — and silence on the
// captured fields, the reasoned skip, and the type-level exemption.
func TestStatecovFixture(t *testing.T) {
	m := loadSnapcovModule(t)

	got := make(map[finding]int)
	for _, d := range RunModule(m, []*ModuleAnalyzer{StatecovAnalyzer}) {
		got[finding{filepath.Base(d.Pos.Filename), d.Pos.Line, d.Rule}]++
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "snapcov"))
	if err != nil {
		t.Fatal(err)
	}
	want := wantFindings(t, dir)
	for f, n := range want {
		if got[f] != n {
			t.Errorf("%s:%d: want %d %s finding(s), got %d", f.file, f.line, n, f.rule, got[f])
		}
	}
	for f, n := range got {
		if want[f] == 0 {
			t.Errorf("%s:%d: unexpected %s finding (x%d)", f.file, f.line, f.rule, n)
		}
	}
}

// TestStatecovMessages pins the wording that makes the findings
// actionable: the owning type and field for an uncaptured field, the
// pair name for a half-pair type, and the reason demand for a bare skip.
func TestStatecovMessages(t *testing.T) {
	m := loadSnapcovModule(t)
	diags := RunModule(m, []*ModuleAnalyzer{StatecovAnalyzer})

	wants := []string{
		"field Sim.Uncov is not touched by any CaptureState/RestoreState path",
		"field Packet.Meta is not touched by any CaptureState/RestoreState path",
		"type CaptOnly has CaptureState but no RestoreState",
		"//flovsnap:skip on field Sim.bad needs a reason",
	}
	for _, want := range wants {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Msg, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no statecov finding contains %q; got %v", want, diags)
		}
	}
}

// TestStatecovSilentWithoutDriver: a partial load that brings in state
// holders but not the snapshot driver (what `flovlint ./internal/core`
// loads) cannot judge coverage, so it reports nothing — while the
// fixture, whose driver is loaded, still reports its gaps.
func TestStatecovSilentWithoutDriver(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Load("flov/internal/core"); err != nil {
		t.Fatal(err)
	}
	core := NewModule(loader.ModulePath, loader.Fset, loader.Packages())
	if diags := RunModule(core, []*ModuleAnalyzer{StatecovAnalyzer}); len(diags) != 0 {
		t.Fatalf("core-only load: %d statecov finding(s), first %v", len(diags), diags[0])
	}

	if diags := RunModule(loadSnapcovModule(t), []*ModuleAnalyzer{StatecovAnalyzer}); len(diags) == 0 {
		t.Fatal("fixture gaps no longer reported")
	}
}

// TestStatecovDriverRot: a driver inside a loaded package that no longer
// resolves is itself a finding, so the driver list cannot silently rot.
// The fixture snaprot stands in for the snapshot package with Save
// renamed.
func TestStatecovDriverRot(t *testing.T) {
	m := loadWithSnapshot(t, map[string]string{
		snapfixPath:              "snapcov",
		"flov/internal/snapshot": "snaprot",
	})
	diags := RunModule(m, []*ModuleAnalyzer{StatecovAnalyzer})
	if len(diags) != 1 || !strings.Contains(diags[0].Msg, "driver flov/internal/snapshot.Save not found") {
		t.Fatalf("want one driver-rot finding, got %v", diags)
	}
}
