package analysis

import (
	"go/types"
	"strings"
)

// ReachAnalyzer proves that simulation entry points never transitively
// reach a forbidden determinism source: wall-clock time, math/rand,
// process-environment reads, or order-sensitive map iteration. It is
// the whole-program complement to the per-package nondeterm rule —
// a time.Now laundered through a helper in a wall-clock-allowlisted
// package, or hidden behind an interface method, escapes the package
// allowlist but not an entry-point reachability walk over the module
// call graph.
//
// Findings are reported at the forbidden source with the full call
// chain from the entry point, so the fix site and the reason are both
// in the message. Suppressing one (//flovlint:allow reach) therefore
// happens at the source use, where the justification belongs.
var ReachAnalyzer = &ModuleAnalyzer{
	Name: "reach",
	Doc:  "prove simulation entry points reach no wall-clock/rand/env/map-order source",
	Run:  runReach,
}

// RootSpec names one reach entry point.
type RootSpec struct {
	Pkg  string // import path, e.g. "flov/internal/network"
	Recv string // receiver base type name, "" for plain functions
	Func string
}

// String renders the spec in "pkg.Recv.Func" form.
func (r RootSpec) String() string {
	if r.Recv == "" {
		return r.Pkg + "." + r.Func
	}
	return r.Pkg + "." + r.Recv + "." + r.Func
}

// DefaultReachRoots returns the simulator's entry points: the per-cycle
// network step, the full synthetic run loop, the closed-loop trace
// driver, and the sweep engine's one point runner (Job.Run and the
// Engine wall-time the point, so the root sits just below them).
func DefaultReachRoots() []RootSpec {
	return []RootSpec{
		{Pkg: "flov/internal/network", Recv: "Network", Func: "Step"},
		{Pkg: "flov/internal/network", Recv: "Network", Func: "Run"},
		{Pkg: "flov/internal/trace", Recv: "Driver", Func: "Run"},
		{Pkg: "flov/internal/sweep", Recv: "Job", Func: "run"},
		// Restore rebuilds live simulation state from a checkpoint; any
		// nondeterminism reachable from it would corrupt resumed runs.
		{Pkg: "flov/internal/snapshot", Func: "Restore"},
		// The reliability harness: trial derivation must be a pure
		// function of the spec (seeds included), and the replay of a
		// failing trial must re-simulate it bit-identically.
		{Pkg: "flov/internal/relcheck", Recv: "Spec", Func: "Jobs"},
		{Pkg: "flov/internal/relcheck", Func: "replayTrial"},
		// The optimizer's deterministic halves — candidate proposal and
		// score absorption (strategy Ask/Tell, archive updates, genome
		// decoding). The engine call between them is the only wall-clock
		// part of a generation; everything the search identity depends
		// on must stay pure or fronts stop reproducing across processes.
		{Pkg: "flov/internal/opt", Recv: "run", Func: "propose"},
		{Pkg: "flov/internal/opt", Recv: "run", Func: "absorb"},
		// The cluster's terminal row assembly: its output is the
		// byte-compared artifact of the "same rows on any topology"
		// contract, so nothing wall-clock or map-ordered may reach it
		// even though the rest of internal/cluster is allowlisted.
		{Pkg: "flov/internal/cluster", Func: "assembleRows"},
	}
}

func runReach(p *ModulePass) {
	m := p.Module
	roots := m.Roots
	if roots == nil {
		roots = DefaultReachRoots()
	}
	graph := m.Graph()

	// reported dedups sources reachable from several roots: the first
	// chain is proof enough.
	reported := make(map[SourceUse]bool)
	for _, root := range roots {
		node := findRoot(graph, root)
		if node == nil {
			// A root inside a loaded package that no longer resolves is
			// rot in the root list itself — fail loudly rather than
			// silently proving nothing. Roots of packages outside this
			// run's load set are skipped (partial invocations like
			// `flovlint ./internal/service` cannot see them).
			if pkg, ok := m.pkg(root.Pkg); ok {
				p.Reportf(pkg.Files[0].Package, "reach entry point %s not found; update the root list", root)
			}
			continue
		}
		walkFrom(p, node, root, reported)
	}
}

// findRoot resolves a RootSpec against the graph.
func findRoot(g *CallGraph, root RootSpec) *FuncNode {
	for _, n := range g.Nodes() {
		fn := n.Fn
		if fn.Name() != root.Func || fn.Pkg() == nil || fn.Pkg().Path() != root.Pkg {
			continue
		}
		if recvBaseName(fn) == root.Recv {
			return n
		}
	}
	return nil
}

// recvBaseName returns the receiver's base type name, or "".
func recvBaseName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// walkFrom BFS-walks the graph from root, reporting every forbidden
// source in reach with its call chain.
func walkFrom(p *ModulePass, start *FuncNode, root RootSpec, reported map[SourceUse]bool) {
	parent := make(map[*FuncNode]*FuncNode)
	visited := map[*FuncNode]bool{start: true}
	queue := []*FuncNode{start}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, src := range n.Sources {
			if reported[src] {
				continue
			}
			reported[src] = true
			p.Reportf(src.Pos, "%s is reachable from entry point %s: %s",
				src.What, root, chainString(parent, start, n))
		}
		for _, e := range n.Callees {
			if !visited[e.Callee] {
				visited[e.Callee] = true
				parent[e.Callee] = n
				queue = append(queue, e.Callee)
			}
		}
	}
}

// chainString renders the call chain start -> ... -> n.
func chainString(parent map[*FuncNode]*FuncNode, start, n *FuncNode) string {
	var rev []string
	for cur := n; cur != nil; cur = parent[cur] {
		rev = append(rev, funcDisplay(cur.Fn))
		if cur == start {
			break
		}
	}
	var b strings.Builder
	for i := len(rev) - 1; i >= 0; i-- {
		if b.Len() > 0 {
			b.WriteString(" -> ")
		}
		b.WriteString(rev[i])
	}
	return b.String()
}
