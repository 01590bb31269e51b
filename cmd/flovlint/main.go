// Command flovlint runs the simulator's determinism and invariant
// analyzers over the module: no ambient randomness or wall-clock time
// in simulation packages, no map-iteration order leaking into results,
// no silently discarded errors, lock discipline in the serving layer,
// and — module-wide, over the static call graph — four proofs: that
// the simulation entry points never transitively reach a wall-clock,
// math/rand, environment, or map-order source (reach); that every
// struct field reachable from the snapshot roots is round-tripped by
// CaptureState/RestoreState or carries a //flovsnap:skip <reason>
// exemption (statecov); that the hot simulation paths (network.Step,
// the router pipeline, the sim.Delay operations) perform no
// steady-state heap allocation — make/new, growing append, interface
// boxing, fmt calls, escaping closures — reported with the full call
// chain from the root (hotalloc); and that the gated-router cycle
// branch mutates nothing outside the allowlisted FLOV latch/wake
// state, via interprocedural mutation summaries (purity). See
// internal/analysis for the rules and the //flovlint:allow suppression
// syntax.
//
// Usage:
//
//	flovlint ./...                  # whole module (the CI gate)
//	flovlint ./internal/core        # one package
//	flovlint -rule reach ./...
//	flovlint -list-rules            # every rule with its one-line doc
//	flovlint -sarif out.sarif ./... # SARIF 2.1.0 log ("-" = stdout)
//
// Every finding fails the run; acknowledge an intentional one with a
// reasoned //flovlint:allow comment on its line.
//
// Exit status: 0 clean, 1 findings, 2 operational error (unparseable
// or untypeable code included — broken code cannot be vouched for).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"flov/internal/analysis"
)

func main() {
	rules := flag.String("rule", "", "comma-separated analyzer subset (default: all)")
	tags := flag.String("tags", "", "comma-separated build tags (e.g. flovdebug)")
	listRulesFlag := flag.Bool("list-rules", false, "list every rule with its one-line doc and exit")
	sarifOut := flag.String("sarif", "", "write a SARIF 2.1.0 log to this file (\"-\" = stdout)")
	flag.Parse()

	if *listRulesFlag {
		listRules(os.Stdout)
		return
	}

	pkgAnalyzers, modAnalyzers, err := selectAnalyzers(*rules)
	if err != nil {
		fatal(err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := analysis.FindModuleRoot(wd)
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fatal(err)
	}
	if *tags != "" {
		loader.BuildTags = strings.Split(*tags, ",")
	}

	paths, err := loader.Discover(patterns)
	if err != nil {
		fatal(err)
	}

	var diags []analysis.Diagnostic
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fatal(err)
		}
		diags = append(diags, analysis.RunPackage(pkg, pkgAnalyzers)...)
	}

	if len(modAnalyzers) > 0 {
		module := analysis.NewModule(loader.ModulePath, loader.Fset, loader.Packages())
		diags = append(diags, analysis.RunModule(module, modAnalyzers)...)
	}
	analysis.SortDiagnostics(diags)

	if *sarifOut != "" {
		if err := writeSARIFOutput(*sarifOut, root, diags); err != nil {
			fatal(err)
		}
	}
	for _, d := range diags {
		fmt.Println(relToRoot(root, d))
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "flovlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// listRules prints every rule with its one-line doc, per-package rules
// first, then module-wide, both in registration order. The README's
// rule table is checked against this list by TestReadmeDocumentsEveryRule.
func listRules(w io.Writer) {
	for _, a := range analysis.Analyzers() {
		_, _ = fmt.Fprintf(w, "%-10s %s\n", a.Name, a.Doc)
	}
	for _, a := range analysis.ModuleAnalyzers() {
		_, _ = fmt.Fprintf(w, "%-10s %s (module-wide)\n", a.Name, a.Doc)
	}
}

// writeSARIFOutput writes the SARIF log to path, with "-" for stdout.
func writeSARIFOutput(path, root string, diags []analysis.Diagnostic) error {
	if path == "-" {
		return analysis.WriteSARIF(os.Stdout, root, diags)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := analysis.WriteSARIF(f, root, diags); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

// relToRoot rewrites a diagnostic's filename relative to the module
// root for stable, clickable output.
func relToRoot(root string, d analysis.Diagnostic) string {
	rel, err := filepath.Rel(root, d.Pos.Filename)
	if err != nil {
		return d.String()
	}
	d.Pos.Filename = rel
	return d.String()
}

// selectAnalyzers resolves a -rule list against both the per-package
// and the module-wide analyzer sets.
func selectAnalyzers(rules string) ([]*analysis.Analyzer, []*analysis.ModuleAnalyzer, error) {
	pkgAll := analysis.Analyzers()
	modAll := analysis.ModuleAnalyzers()
	if rules == "" {
		return pkgAll, modAll, nil
	}
	pkgByName := make(map[string]*analysis.Analyzer, len(pkgAll))
	for _, a := range pkgAll {
		pkgByName[a.Name] = a
	}
	modByName := make(map[string]*analysis.ModuleAnalyzer, len(modAll))
	for _, a := range modAll {
		modByName[a.Name] = a
	}
	var pkgOut []*analysis.Analyzer
	var modOut []*analysis.ModuleAnalyzer
	for _, name := range strings.Split(rules, ",") {
		name = strings.TrimSpace(name)
		if a, ok := pkgByName[name]; ok {
			pkgOut = append(pkgOut, a)
			continue
		}
		if a, ok := modByName[name]; ok {
			modOut = append(modOut, a)
			continue
		}
		return nil, nil, fmt.Errorf("unknown analyzer %q", name)
	}
	return pkgOut, modOut, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flovlint:", err)
	os.Exit(2)
}
