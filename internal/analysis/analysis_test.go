package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// finding is a (file, line, rule) triple, the granularity at which the
// fixture declares its expected diagnostics.
type finding struct {
	file string // base name
	line int
	rule string
}

// newTestLoader builds a loader over the real module with the fixture
// directory mapped to the given fake in-module import paths.
func newTestLoader(t *testing.T, importPaths ...string) (*Loader, string) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	loader.Overrides = make(map[string]string)
	for _, p := range importPaths {
		loader.Overrides[p] = dir
	}
	return loader, dir
}

// newDirLoader builds a loader over the real module with arbitrary
// testdata subdirectories mapped to fake in-module import paths.
func newDirLoader(t *testing.T, mapping map[string]string) *Loader {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	loader.Overrides = make(map[string]string)
	for path, subdir := range mapping {
		dir, err := filepath.Abs(filepath.Join("testdata", subdir))
		if err != nil {
			t.Fatal(err)
		}
		loader.Overrides[path] = dir
	}
	return loader
}

// wantFindings scans the fixture sources for trailing
// "// want <rule>..." markers.
func wantFindings(t *testing.T, dir string) map[finding]int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rules := make(map[string]bool)
	for _, a := range Analyzers() {
		rules[a.Name] = true
	}
	for _, a := range ModuleAnalyzers() {
		rules[a.Name] = true
	}
	want := make(map[finding]int)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, after, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			for _, rule := range strings.Fields(after) {
				if rules[rule] { // prose mentioning "// want" is not a marker
					want[finding{e.Name(), i + 1, rule}]++
				}
			}
		}
	}
	if len(want) == 0 {
		t.Fatalf("no // want markers found under %s", dir)
	}
	return want
}

// TestAnalyzersOnFixture checks every analyzer against the marked
// violations in testdata/fixture, including that the //flovlint:allow
// suppression and the allowed idioms produce no extra findings.
func TestAnalyzersOnFixture(t *testing.T) {
	const path = "flov/internal/fixture" // restricted: nondeterm applies
	loader, dir := newTestLoader(t, path)
	pkg, err := loader.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	got := make(map[finding]int)
	for _, d := range RunPackage(pkg, Analyzers()) {
		got[finding{filepath.Base(d.Pos.Filename), d.Pos.Line, d.Rule}]++
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

// TestNondetAllowlistedPath reloads the same fixture under a cmd/ path,
// where wall-clock time and ambient randomness are legitimate: the
// nondeterm analyzer must stay silent.
func TestNondetAllowlistedPath(t *testing.T) {
	const path = "flov/cmd/fixture"
	loader, _ := newTestLoader(t, path)
	pkg, err := loader.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range RunPackage(pkg, []*Analyzer{NondetAnalyzer}) {
		t.Errorf("allowlisted package flagged: %s", d)
	}
}

// TestNondetServiceAllowlisted reloads the fixture under the serving
// layer's import paths: flovd is a wall-clock program (queues, HTTP
// deadlines, metrics), so the nondeterm analyzer must stay silent for
// internal/service and its subpackages.
func TestNondetServiceAllowlisted(t *testing.T) {
	for _, path := range []string{"flov/internal/service", "flov/internal/service/client", "flov/internal/cluster"} {
		loader, _ := newTestLoader(t, path)
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range RunPackage(pkg, []*Analyzer{NondetAnalyzer}) {
			t.Errorf("%s: allowlisted package flagged: %s", path, d)
		}
	}
}

// TestNondetFaultStreamPermitted pins the fault-injection carve-out from
// the permitted side: the real fault subsystem and the reliability
// harness draw all randomness from the dedicated seeded sim.RNG stream,
// so the nondeterm analyzer must pass them without any allowlist entry —
// the approved stream is the permission.
func TestNondetFaultStreamPermitted(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"flov/internal/fault", "flov/internal/relcheck"} {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range RunPackage(pkg, []*Analyzer{NondetAnalyzer}) {
			t.Errorf("%s: seeded-stream package flagged: %s", path, d)
		}
	}
}

// TestNondetSimulationStaysForbidden pins the other side of the
// serving-layer carve-out: core simulation packages — the fault
// subsystem included — must still reject wall-clock time and ambient
// randomness, with exactly the findings the fixture's markers declare.
func TestNondetSimulationStaysForbidden(t *testing.T) {
	for _, path := range []string{"flov/internal/network/fixture", "flov/internal/sim/fixture", "flov/internal/fault/fixture"} {
		loader, dir := newTestLoader(t, path)
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[finding]int)
		for _, d := range RunPackage(pkg, []*Analyzer{NondetAnalyzer}) {
			got[finding{filepath.Base(d.Pos.Filename), d.Pos.Line, d.Rule}]++
		}
		want := make(map[finding]int)
		for f, n := range wantFindings(t, dir) {
			if f.rule == NondetAnalyzer.Name {
				want[f] = n
			}
		}
		if len(want) == 0 {
			t.Fatal("fixture declares no nondeterm markers")
		}
		for f, n := range want {
			if got[f] != n {
				t.Errorf("%s: %s:%d: want %d nondeterm finding(s), got %d", path, f.file, f.line, n, got[f])
			}
		}
		for f, n := range got {
			if want[f] == 0 {
				t.Errorf("%s: %s:%d: unexpected nondeterm finding (x%d)", path, f.file, f.line, n)
			}
		}
	}
}

// TestDiscoverSkipsTestdata checks that ./... expansion covers the real
// packages but never descends into testdata fixtures.
func TestDiscoverSkipsTestdata(t *testing.T) {
	loader, _ := newTestLoader(t)
	paths, err := loader.Discover([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(paths))
	for _, p := range paths {
		seen[p] = true
		if strings.Contains(p, "testdata") {
			t.Errorf("Discover leaked a testdata package: %s", p)
		}
	}
	for _, must := range []string{"flov", "flov/internal/analysis", "flov/internal/sweep", "flov/cmd/flovlint"} {
		if !seen[must] {
			t.Errorf("Discover missed %s (got %d packages)", must, len(paths))
		}
	}
}

// TestDiscoverStopsAtNestedModules: a subdirectory with its own go.mod
// is a separate module, so ./... must not list its packages, exactly
// as the go command does.
func TestDiscoverStopsAtNestedModules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":             "module example.com/outer\n",
		"a/a.go":             "package a\n",
		"inner/go.mod":       "module example.com/inner\n",
		"inner/inner.go":     "package inner\n",
		"inner/sub/sub.go":   "package sub\n",
		"plain/sub/plain.go": "package sub\n",
	}
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, pattern := range []string{"./...", "./inner/..."} {
		paths, err := loader.Discover([]string{pattern})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			if strings.Contains(p, "inner") {
				t.Errorf("%s listed nested-module package %s", pattern, p)
			}
		}
	}
	paths, err := loader.Discover([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"example.com/outer/a", "example.com/outer/plain/sub"}
	if !reflect.DeepEqual(paths, want) {
		t.Errorf("./... = %v, want %v", paths, want)
	}
}

// TestDiscoverSubtreePattern checks ./dir/... expansion: everything at
// or under the prefix, nothing outside it.
func TestDiscoverSubtreePattern(t *testing.T) {
	loader, _ := newTestLoader(t)
	paths, err := loader.Discover([]string{"./cmd/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("./cmd/... matched nothing")
	}
	seen := make(map[string]bool, len(paths))
	for _, p := range paths {
		seen[p] = true
		if p != "flov/cmd" && !strings.HasPrefix(p, "flov/cmd/") {
			t.Errorf("./cmd/... leaked %s", p)
		}
	}
	if !seen["flov/cmd/flovlint"] {
		t.Errorf("./cmd/... missed flov/cmd/flovlint: %v", paths)
	}
}
