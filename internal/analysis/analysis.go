// Package analysis implements flovlint: a small static-analysis suite,
// built purely on the standard library's go/parser, go/ast and go/types
// packages, that enforces the coding rules the simulator's determinism
// guarantees rest on.
//
// The sweep engine's content-addressed result cache and the equivalence
// tests assume that identical Job specs always produce bit-identical
// rows. That property holds only if simulation code draws randomness
// exclusively from the seeded sim.RNG, never reads the wall clock,
// never lets map-iteration order leak into results, and never compares
// latency/energy floats with ==. Each analyzer in this package checks
// one of those rules mechanically; cmd/flovlint wires them into a CI
// gate.
//
// Diagnostics can be suppressed for one line with a trailing or
// preceding comment of the form:
//
//	//flovlint:allow <rule>[,<rule>...] [-- reason]
//
// Suppressions are for code that is legitimately exempt (for example a
// CLI that reports wall-clock runtime); they should always carry a
// reason.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the finding in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	Fset   *token.FileSet
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info
	Path   string // import path of the package under analysis
	Module string // module path ("flov")

	rule    string
	diags   *[]Diagnostic
	allowed map[allowKey]bool
}

type allowKey struct {
	file string
	line int
	rule string
}

// Reportf records a diagnostic at pos unless a suppression comment
// covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	reportf(p.Fset, p.allowed, p.diags, p.rule, pos, format, args...)
}

// TypeOf returns the type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// InModule reports whether path lies inside the analyzed module.
func (p *Pass) InModule(path string) bool {
	return path == p.Module || strings.HasPrefix(path, p.Module+"/")
}

// Analyzers returns the full per-package flovlint analyzer set. The
// module-wide set is ModuleAnalyzers.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NondetAnalyzer,
		MapRangeAnalyzer,
		FloatCmpAnalyzer,
		ErrCheckAnalyzer,
		ExhaustiveAnalyzer,
		LockSafeAnalyzer,
	}
}

// RunPackage runs the given analyzers over one loaded package and
// returns its diagnostics sorted by position.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	allowed := collectSuppressions(pkg.Fset, pkg.Files)
	for _, a := range analyzers {
		pass := &Pass{
			Fset:    pkg.Fset,
			Files:   pkg.Files,
			Pkg:     pkg.Types,
			Info:    pkg.Info,
			Path:    pkg.Path,
			Module:  pkg.Module,
			rule:    a.Name,
			diags:   &diags,
			allowed: allowed,
		}
		a.Run(pass)
	}
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders findings by position, then rule.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// collectSuppressions indexes //flovlint:allow comments. A suppression
// covers its own line (trailing comment) and the line below it
// (comment on the preceding line).
func collectSuppressions(fset *token.FileSet, files []*ast.File) map[allowKey]bool {
	allowed := make(map[allowKey]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//flovlint:allow")
				if !ok {
					continue
				}
				if reason := strings.SplitN(text, "--", 2); len(reason) > 0 {
					text = reason[0]
				}
				pos := fset.Position(c.Pos())
				for _, rule := range strings.Split(text, ",") {
					rule = strings.TrimSpace(rule)
					if rule == "" {
						continue
					}
					allowed[allowKey{pos.Filename, pos.Line, rule}] = true
					allowed[allowKey{pos.Filename, pos.Line + 1, rule}] = true
				}
			}
		}
	}
	return allowed
}
