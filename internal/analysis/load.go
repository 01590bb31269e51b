package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module.
type Package struct {
	Path   string // import path
	Module string // module path
	Dir    string
	Fset   *token.FileSet
	Files  []*ast.File
	Types  *types.Package
	Info   *types.Info
}

// Loader parses and type-checks module packages without any dependency
// on golang.org/x/tools: module-internal imports are resolved against
// the module root, standard-library imports through the stdlib source
// importer.
type Loader struct {
	ModuleRoot string
	ModulePath string
	Fset       *token.FileSet
	BuildTags  []string

	// Overrides maps an import path to a directory, letting tests load
	// fixture packages under testdata/ as if they lived in the module.
	Overrides map[string]string

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader rooted at moduleRoot, reading the module
// path from go.mod.
func NewLoader(moduleRoot string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", moduleRoot)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: moduleRoot,
		ModulePath: modPath,
		Fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// buildContext returns the file-matching context for the configured
// build tags.
func (l *Loader) buildContext() build.Context {
	ctx := build.Default
	ctx.BuildTags = append([]string(nil), l.BuildTags...)
	return ctx
}

// dirFor resolves an import path inside the module to a directory.
func (l *Loader) dirFor(path string) (string, bool) {
	if dir, ok := l.Overrides[path]; ok {
		return dir, true
	}
	if path == l.ModulePath {
		return l.ModuleRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// inModule reports whether path should be loaded from the module tree.
func (l *Loader) inModule(path string) bool {
	_, ok := l.dirFor(path)
	return ok
}

// Load parses and type-checks the package at the given import path,
// memoizing the result. Test files (_test.go) are excluded: flovlint's
// rules target non-test code.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("analysis: %q is not a module package", path)
	}
	names, err := l.sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}

	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	cfg := types.Config{Importer: importerFunc(l.importPkg)}
	tpkg, err := cfg.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}

	pkg := &Package{
		Path:   path,
		Module: l.ModulePath,
		Dir:    dir,
		Fset:   l.Fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Packages returns every module package the loader has brought in so
// far — explicitly loaded ones plus module-internal dependencies —
// sorted by import path.
func (l *Loader) Packages() []*Package {
	var paths []string
	for path := range l.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, path := range paths {
		out = append(out, l.pkgs[path])
	}
	return out
}

// importPkg resolves one import during type checking.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.inModule(path) {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// sourceFiles lists the non-test Go files of dir that match the build
// context (so //go:build flovdebug variants are selected consistently
// with an ordinary build).
func (l *Loader) sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	ctx := l.buildContext()
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := ctx.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Discover expands package patterns into import paths. Supported
// patterns: "./..." (every package under the module root), a relative
// directory ("./internal/sim"), or a plain import path.
func (l *Loader) Discover(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			paths, err := l.walkModule()
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		case strings.HasSuffix(pat, "/..."):
			// Subtree pattern like ./cmd/...: every module package at or
			// under the prefix.
			rel := filepath.ToSlash(filepath.Clean(strings.TrimPrefix(strings.TrimSuffix(pat, "/..."), "./")))
			prefix := l.ModulePath
			if rel != "." {
				prefix = l.ModulePath + "/" + rel
			}
			paths, err := l.walkModule()
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				if p == prefix || strings.HasPrefix(p, prefix+"/") {
					add(p)
				}
			}
		case strings.HasPrefix(pat, "./"):
			rel := filepath.ToSlash(filepath.Clean(strings.TrimPrefix(pat, "./")))
			if rel == "." {
				add(l.ModulePath)
			} else {
				add(l.ModulePath + "/" + rel)
			}
		default:
			add(pat)
		}
	}
	sort.Strings(out)
	return out, nil
}

// walkModule lists every buildable package directory in the module,
// skipping testdata, hidden and vendor directories and, like the go
// command, any subdirectory with its own go.mod (a nested module).
func (l *Loader) walkModule() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.ModuleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.ModuleRoot && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if p != l.ModuleRoot {
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		names, err := l.sourceFiles(p)
		if err != nil || len(names) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleRoot, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.ModulePath)
		} else {
			paths = append(paths, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	return paths, err
}

// FindModuleRoot walks upward from dir to the nearest go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
