package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Module is the whole-program view: every package the loader brought in,
// presented to module-wide analyzers together with the reach entry
// points. Per-package analyzers see one Pass; module analyzers see one
// ModulePass over all of this.
type Module struct {
	Path     string // module path ("flov")
	Fset     *token.FileSet
	Packages []*Package // sorted by import path
	// Roots are the reach entry points, defaulting to DefaultReachRoots
	// when nil; tests substitute fixture entry points.
	Roots []RootSpec
	// HotRoots are the hotalloc entry points, defaulting to
	// DefaultHotAllocRoots when nil.
	HotRoots []RootSpec
	// PureRoots, PureAllow and PureBoundaries configure the purity
	// analyzer: entry points that must stay pure, the mutation-location
	// keys they may touch, and the wake-event functions the walk stops
	// at. Each defaults to its DefaultPurity* set when nil.
	PureRoots      []RootSpec
	PureAllow      []string
	PureBoundaries []RootSpec

	graph *CallGraph // built lazily, shared across module analyzers
}

// NewModule assembles a Module from loaded packages, sorting them by
// import path so every module-wide walk is deterministic.
func NewModule(path string, fset *token.FileSet, pkgs []*Package) *Module {
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	return &Module{Path: path, Fset: fset, Packages: sorted}
}

// Graph returns the module's conservative static call graph, building
// it on first use.
func (m *Module) Graph() *CallGraph {
	if m.graph == nil {
		m.graph = BuildCallGraph(m)
	}
	return m.graph
}

// ModuleAnalyzer is one named check run over the whole module.
type ModuleAnalyzer struct {
	Name string
	Doc  string
	Run  func(*ModulePass)
}

// ModulePass hands the module view to one analyzer.
type ModulePass struct {
	Module *Module

	rule    string
	diags   *[]Diagnostic
	allowed map[allowKey]bool
}

// Reportf records a diagnostic at pos unless a suppression comment
// covers it.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	reportf(p.Module.Fset, p.allowed, p.diags, p.rule, pos, format, args...)
}

// ModuleAnalyzers returns the module-wide flovlint analyzer set.
func ModuleAnalyzers() []*ModuleAnalyzer {
	return []*ModuleAnalyzer{ReachAnalyzer, StatecovAnalyzer, HotAllocAnalyzer, PurityAnalyzer}
}

// RunModule runs the given module analyzers over the loaded module and
// returns their diagnostics sorted by position.
func RunModule(m *Module, analyzers []*ModuleAnalyzer) []Diagnostic {
	var diags []Diagnostic
	allowed := make(map[allowKey]bool)
	for _, pkg := range m.Packages {
		for k, v := range collectSuppressions(pkg.Fset, pkg.Files) {
			allowed[k] = v
		}
	}
	for _, a := range analyzers {
		a.Run(&ModulePass{Module: m, rule: a.Name, diags: &diags, allowed: allowed})
	}
	SortDiagnostics(diags)
	return diags
}

// funcDisplay renders a function or method in the short form used by
// reach chains: "network.(*Network).Step", "sweep.Job.runSynthetic",
// "time.Now".
func funcDisplay(fn *types.Func) string {
	pkgName := ""
	if fn.Pkg() != nil {
		parts := strings.Split(fn.Pkg().Path(), "/")
		pkgName = parts[len(parts)-1] + "."
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkgName + fn.Name()
	}
	recv := sig.Recv().Type()
	ptr := ""
	if pt, isPtr := recv.(*types.Pointer); isPtr {
		recv, ptr = pt.Elem(), "*"
	}
	name := recv.String()
	if named, isNamed := recv.(*types.Named); isNamed {
		name = named.Obj().Name()
	}
	if ptr != "" {
		return pkgName + "(*" + name + ")." + fn.Name()
	}
	return pkgName + name + "." + fn.Name()
}

// reportf is the shared diagnostic sink behind Pass and ModulePass.
func reportf(fset *token.FileSet, allowed map[allowKey]bool, diags *[]Diagnostic, rule string, pos token.Pos, format string, args ...any) {
	position := fset.Position(pos)
	if allowed[allowKey{position.Filename, position.Line, rule}] {
		return
	}
	*diags = append(*diags, Diagnostic{
		Pos:  position,
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// funcLitsOf returns the function literals syntactically inside node,
// outermost first, for walkers that analyze closures separately.
func funcLitsOf(node ast.Node) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(node, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, fl)
		}
		return true
	})
	return lits
}
