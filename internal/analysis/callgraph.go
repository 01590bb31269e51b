package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CallGraph is a conservative, module-closed static call graph over
// every function declared in the loaded packages.
//
// Edges:
//
//   - direct calls to module functions and concretely-typed methods;
//   - interface dispatch, resolved to the matching method of every
//     in-module named type that implements the interface (the closed-
//     world assumption: implementations living outside the module are
//     invisible, which is sound here because the module vendors no
//     plugins and stdlib types cannot reach module-forbidden sources);
//   - function references: a function whose value is mentioned (stored
//     in a field, passed as a callback, launched with go/defer) gains
//     an edge from the mentioning function, over-approximating "anyone
//     I hand this to may call it".
//
// Function literals are attributed to their enclosing declaration, and
// package-level variable initializers are attributed to a per-package
// pseudo-function named "<init>". Reflection and unsafe are out of
// scope (the module uses neither on call paths).
//
// Each node also records the forbidden determinism sources its body
// touches (wall clock, math/rand, environment reads, order-sensitive
// map iteration), which is what the reach analyzer consumes.
type CallGraph struct {
	nodes map[*types.Func]*FuncNode
	// order lists nodes sorted by position so every whole-graph walk is
	// deterministic.
	order []*FuncNode
}

// FuncNode is one function in the call graph.
type FuncNode struct {
	Fn      *types.Func
	Pkg     *Package
	Decl    *ast.FuncDecl // the declaration, for analyzers that scan bodies
	Callees []CallEdge
	Sources []SourceUse
}

// CallEdge is one resolved call or reference.
type CallEdge struct {
	Callee *FuncNode
	Pos    token.Pos
	// Via describes how the edge arises: "call" for static calls,
	// "dispatch on I" for interface dispatch, "ref" for a function value
	// reference.
	Via string
}

// SourceUse is one use of a forbidden determinism source.
type SourceUse struct {
	Pos  token.Pos
	What string // e.g. "time.Now", "math/rand.Int63", "os.Getenv", "order-sensitive map iteration"
}

// Nodes returns every node in deterministic (position) order.
func (g *CallGraph) Nodes() []*FuncNode { return g.order }

// envReadFuncs are os functions whose result depends on the process
// environment — forbidden on simulation paths for the same reason the
// wall clock is.
var envReadFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true,
}

// BuildCallGraph constructs the module call graph.
func BuildCallGraph(m *Module) *CallGraph {
	b := &graphBuilder{
		graph:      &CallGraph{nodes: make(map[*types.Func]*FuncNode)},
		module:     m,
		dispatch:   make(map[dispatchKey][]*types.Func),
		namedTypes: collectNamedTypes(m),
	}
	// First pass: one node per declared function body, so edge
	// resolution can target any of them regardless of package order.
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Fn: fn, Pkg: pkg, Decl: fd}
				b.graph.nodes[fn] = node
				// Packages are sorted and files/decls follow source
				// order, so insertion order is already deterministic.
				b.graph.order = append(b.graph.order, node)
			}
		}
	}
	// Second pass: walk bodies, resolving edges and recording sources.
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
						b.walkBody(b.graph.nodes[fn], pkg, d.Body)
					}
				case *ast.GenDecl:
					// Package-level initializers (var x = f()) run at
					// program start, not on simulation paths; their
					// closures are deliberately outside the graph.
				}
			}
		}
	}
	for _, n := range b.graph.order {
		sort.SliceStable(n.Callees, func(i, j int) bool { return n.Callees[i].Pos < n.Callees[j].Pos })
		sort.SliceStable(n.Sources, func(i, j int) bool { return n.Sources[i].Pos < n.Sources[j].Pos })
	}
	return b.graph
}

type dispatchKey struct {
	iface  *types.Interface
	method string
}

type graphBuilder struct {
	graph      *CallGraph
	module     *Module
	dispatch   map[dispatchKey][]*types.Func
	namedTypes []*types.Named
}

// collectNamedTypes lists every named (non-interface, non-alias) type
// declared at package scope anywhere in the module, in deterministic
// order; these are the closed world for interface dispatch.
func collectNamedTypes(m *Module) []*types.Named {
	var out []*types.Named
	for _, pkg := range m.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			out = append(out, named)
		}
	}
	return out
}

// walkBody records every edge and forbidden source in one function
// body (including its closures, attributed to the same node).
func (b *graphBuilder) walkBody(node *FuncNode, pkg *Package, body *ast.BlockStmt) {
	info := pkg.Info
	// calleePos marks selector/ident nodes that are the operator of a
	// call, and selSel the Sel children of visited selectors, so the
	// reference walk below does not double-count either.
	calleePos := make(map[ast.Expr]bool)
	selSel := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fun := ast.Unparen(n.Fun)
			calleePos[fun] = true
			b.resolveCall(node, pkg, n, fun)
		case *ast.RangeStmt:
			for _, v := range mapRangeViolations(info, n) {
				node.Sources = append(node.Sources, SourceUse{v.pos, "order-sensitive map iteration"})
				break // one source per loop is enough for a reach proof
			}
		case *ast.SelectorExpr:
			selSel[n.Sel] = true
			b.noteSelector(node, pkg, n, calleePos[n])
		case *ast.Ident:
			if calleePos[n] || selSel[n] {
				return true
			}
			if fn, ok := info.Uses[n].(*types.Func); ok {
				b.addEdge(node, fn, n.Pos(), "ref")
			}
		}
		return true
	})
}

// noteSelector handles pkg.Fn / x.Method selector expressions: records
// forbidden-source uses and reference edges for method values.
func (b *graphBuilder) noteSelector(node *FuncNode, pkg *Package, sel *ast.SelectorExpr, isCallee bool) {
	info := pkg.Info
	if path, ok := selectorPkgPath(info, sel); ok {
		name := sel.Sel.Name
		switch {
		case path == "time" && wallClockFuncs[name]:
			node.Sources = append(node.Sources, SourceUse{sel.Pos(), "time." + name})
		case path == "math/rand" || path == "math/rand/v2":
			node.Sources = append(node.Sources, SourceUse{sel.Pos(), path + "." + name})
		case path == "os" && envReadFuncs[name]:
			node.Sources = append(node.Sources, SourceUse{sel.Pos(), "os." + name})
		}
	}
	if isCallee {
		return // call edges handled by resolveCall
	}
	// A method value (x.M stored or passed) is a reference edge; for
	// interface receivers it references every implementation.
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		b.methodEdges(node, s, sel.Pos(), "ref")
	} else if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
		b.addEdge(node, fn, sel.Pos(), "ref")
	}
}

// resolveCall adds edges for one call expression.
func (b *graphBuilder) resolveCall(node *FuncNode, pkg *Package, call *ast.CallExpr, fun ast.Expr) {
	info := pkg.Info
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			b.addEdge(node, fn, call.Pos(), "call")
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok && s.Kind() == types.MethodVal {
			b.methodEdges(node, s, call.Pos(), "call")
			return
		}
		// Package-qualified function or func-typed field: the former
		// resolves through Uses; the latter has no static target and is
		// covered by reference edges at its assignment sites.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			b.addEdge(node, fn, call.Pos(), "call")
		}
	}
}

// methodEdges adds edges for a method selection: the concrete method
// itself, or — for interface receivers — every in-module implementation.
func (b *graphBuilder) methodEdges(node *FuncNode, s *types.Selection, pos token.Pos, how string) {
	m, ok := s.Obj().(*types.Func)
	if !ok {
		return
	}
	recv := s.Recv()
	if recv != nil {
		if iface, ok := recv.Underlying().(*types.Interface); ok {
			for _, impl := range b.implementers(iface, m) {
				b.addEdge(node, impl, pos, "dispatch on "+recvDisplay(recv))
			}
			return
		}
	}
	b.addEdge(node, m, pos, how)
}

// implementers returns the concrete in-module methods an interface
// method call can dispatch to, memoized per (interface, method).
func (b *graphBuilder) implementers(iface *types.Interface, m *types.Func) []*types.Func {
	key := dispatchKey{iface, m.Name()}
	if impls, ok := b.dispatch[key]; ok {
		return impls
	}
	var impls []*types.Func
	for _, named := range b.namedTypes {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		selection := types.NewMethodSet(ptr).Lookup(m.Pkg(), m.Name())
		if selection == nil {
			continue
		}
		if impl, ok := selection.Obj().(*types.Func); ok {
			impls = append(impls, impl)
		}
	}
	b.dispatch[key] = impls
	return impls
}

// addEdge links caller -> callee when the callee is a module function
// with a body in the graph. Methods of instantiated generic types (e.g.
// sim.Delay[*noc.Flit].Push) are distinct objects from the declaration
// the graph indexed, so resolution goes through Origin.
func (b *graphBuilder) addEdge(caller *FuncNode, callee *types.Func, pos token.Pos, via string) {
	target, ok := b.graph.nodes[callee]
	if !ok {
		target, ok = b.graph.nodes[callee.Origin()]
	}
	if !ok || target == caller {
		return
	}
	caller.Callees = append(caller.Callees, CallEdge{Callee: target, Pos: pos, Via: via})
}

// recvDisplay names an interface receiver type for edge annotations.
func recvDisplay(t types.Type) string {
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	s := t.String()
	if i := strings.LastIndex(s, "/"); i >= 0 {
		s = s[i+1:]
	}
	return s
}
