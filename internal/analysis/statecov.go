package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// StatecovAnalyzer proves the checkpoint subsystem's completeness
// contract: every field of every struct reachable from the snapshot
// roots is either round-tripped by a CaptureState/RestoreState pair (or
// one of the capture helpers they call, down to the reflection codec's
// plain-data state structs) or carries an explicit exemption. A field
// added to live simulation state without touching the snapshot layer
// would silently desynchronize restored runs — exactly the class of bug
// byte-identical resume cannot tolerate — so it becomes a lint error
// naming the owning type and field.
//
// Mechanics. The analyzer auto-discovers the snapshot roots: every
// module struct type with a CaptureState or RestoreState method
// (network.Network, the router/NI, the FLOV and RP mechanisms, the
// trace driver, the stats/power/fault state holders). It then walks the
// call graph from those methods — plus every function that calls one,
// which pulls in package snapshot's channel walkers — and records every
// struct field the closure touches (selector reads/writes and composite-
// literal keys both count). Finally it walks the type graph: from each
// root, through every covered field, into pointer/slice/array/map
// element types, checking each module struct it reaches. A field never
// touched by the capture/restore closure is reported at its declaration.
//
// Exemptions use a dedicated comment, on the field's line or the line
// above:
//
//	//flovsnap:skip <reason>
//
// The reason is mandatory (a skip without one is itself a finding): the
// point of the comment is an auditable record of why a field does not
// need to survive a restore (immutable configuration, wiring rebuilt by
// New, state re-derived from captured fields). A skip on a type
// declaration exempts the whole type and stops the type-graph walk from
// descending into it.
//
// Partial loads. Coverage can only be judged when the code that drives
// capture and restore is loaded: package snapshot's walkers are what
// touch most fields (every noc.Packet field, Network.Mech, ...), and a
// load like `flovlint ./internal/core` brings in the state holders but
// not their driver. So, like reach with roots outside the load set,
// statecov stays silent when a driver root's package is not loaded.
var StatecovAnalyzer = &ModuleAnalyzer{
	Name: "statecov",
	Doc:  "prove every snapshot-reachable struct field is captured/restored or //flovsnap:skip'd",
	Run:  runStatecov,
}

// skipMarker is the exemption comment prefix (the space matters: the
// reason follows it).
const skipMarker = "//flovsnap:skip"

const (
	captureName = "CaptureState"
	restoreName = "RestoreState"
)

// skipEntry is one parsed //flovsnap:skip comment.
type skipEntry struct {
	reason string
	pos    token.Pos
}

// snapRoot tracks which half of the capture/restore pair a root type
// declares.
type snapRoot struct {
	named   *types.Named
	capture bool
	restore bool
}

// snapDrivers are the entry points that drive checkpoint capture and
// restore across all state holders.
var snapDrivers = []RootSpec{
	{Pkg: "flov/internal/snapshot", Func: "Save"},
	{Pkg: "flov/internal/snapshot", Func: "Restore"},
}

func runStatecov(p *ModulePass) {
	m := p.Module
	graph := m.Graph()

	for _, d := range snapDrivers {
		pkg, ok := m.pkg(d.Pkg)
		if !ok {
			return // the capture closure is incomplete; nothing can be judged
		}
		if findRoot(graph, d) == nil {
			p.Reportf(pkg.Files[0].Package, "statecov driver %s not found; update the driver list", d)
			return
		}
	}

	skips := collectSkips(m)
	roots := findSnapRoots(m)
	if len(roots) == 0 {
		return // nothing snapshot-shaped in this load set
	}

	covered := coveredFields(m, graph)

	// Missing-half findings: a capture without a restore (or vice versa)
	// means the type round-trips in one direction only.
	for _, r := range roots {
		switch {
		case r.capture && !r.restore:
			p.Reportf(r.named.Obj().Pos(), "type %s has %s but no %s: snapshots of it cannot be applied",
				r.named.Obj().Name(), captureName, restoreName)
		case r.restore && !r.capture:
			p.Reportf(r.named.Obj().Pos(), "type %s has %s but no %s: nothing produces its snapshots",
				r.named.Obj().Name(), restoreName, captureName)
		}
	}

	// Type-graph walk from the roots through covered fields.
	seen := make(map[*types.Named]bool)
	var queue []*types.Named
	enqueue := func(n *types.Named) {
		n = n.Origin()
		if !seen[n] {
			seen[n] = true
			queue = append(queue, n)
		}
	}
	for _, r := range roots {
		enqueue(r.named)
	}

	for len(queue) > 0 {
		named := queue[0]
		queue = queue[1:]

		if sk, ok := skipAt(m.Fset, skips, named.Obj().Pos()); ok {
			if sk.reason == "" {
				p.Reportf(sk.pos, "%s on type %s needs a reason", skipMarker, named.Obj().Name())
			}
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		typeName := named.Obj().Name()
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if sk, ok := skipAt(m.Fset, skips, f.Pos()); ok {
				if sk.reason == "" {
					p.Reportf(sk.pos, "%s on field %s.%s needs a reason", skipMarker, typeName, f.Name())
				}
				continue
			}
			if !covered[posKey(m.Fset, f.Pos())] {
				p.Reportf(f.Pos(),
					"field %s.%s is not touched by any %s/%s path: capture it or mark it %s <reason>",
					typeName, f.Name(), captureName, restoreName, skipMarker)
				continue
			}
			for _, elem := range elementTypes(f.Type()) {
				if en, ok := moduleStruct(p, elem); ok {
					enqueue(en)
				}
			}
		}
	}
}

// findSnapRoots lists every package-scope module struct type declaring a
// CaptureState or RestoreState method, in deterministic package/name
// order.
func findSnapRoots(m *Module) []snapRoot {
	var roots []snapRoot
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
			if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
				continue
			}
			r := snapRoot{named: named}
			for i := 0; i < named.NumMethods(); i++ {
				switch named.Method(i).Name() {
				case captureName:
					r.capture = true
				case restoreName:
					r.restore = true
				}
			}
			if r.capture || r.restore {
				roots = append(roots, r)
			}
		}
	}
	return roots
}

// coveredFields walks the capture/restore closure — every CaptureState/
// RestoreState method, every function that directly calls one, and
// everything transitively reachable from those — and returns the set of
// struct fields the closure mentions, keyed by declaration position
// (position identity survives generic instantiation, object identity
// does not).
func coveredFields(m *Module, graph *CallGraph) map[string]bool {
	isPair := func(fn *types.Func) bool {
		return fn.Name() == captureName || fn.Name() == restoreName
	}
	var closure []*FuncNode
	visited := make(map[*FuncNode]bool)
	enqueue := func(n *FuncNode) {
		if !visited[n] {
			visited[n] = true
			closure = append(closure, n)
		}
	}
	for _, n := range graph.Nodes() {
		if isPair(n.Fn) {
			enqueue(n)
			continue
		}
		for _, e := range n.Callees {
			if isPair(e.Callee.Fn) {
				enqueue(n)
				break
			}
		}
	}
	for i := 0; i < len(closure); i++ {
		for _, e := range closure[i].Callees {
			enqueue(e.Callee)
		}
	}

	covered := make(map[string]bool)
	for _, n := range closure {
		if n.Decl == nil || n.Decl.Body == nil {
			continue
		}
		info := n.Pkg.Info
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			id, ok := node.(*ast.Ident)
			if !ok {
				return true
			}
			if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
				covered[posKey(m.Fset, v.Pos())] = true
			}
			return true
		})
	}
	return covered
}

// collectSkips indexes //flovsnap:skip comments by file and line; like
// //flovlint:allow, a skip covers its own line (trailing comment) and
// the line below (comment above the declaration). The text after the
// marker, cut at any nested "//", is the reason.
func collectSkips(m *Module) map[string]map[int]skipEntry {
	out := make(map[string]map[int]skipEntry)
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, skipMarker)
					if idx < 0 {
						continue
					}
					rest := c.Text[idx+len(skipMarker):]
					// Require a clean token boundary, so a longer marker
					// sharing this one as a prefix is not misread as it.
					if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
						continue
					}
					if cut := strings.Index(rest, "//"); cut >= 0 {
						rest = rest[:cut]
					}
					pos := m.Fset.Position(c.Pos())
					byLine := out[pos.Filename]
					if byLine == nil {
						byLine = make(map[int]skipEntry)
						out[pos.Filename] = byLine
					}
					e := skipEntry{reason: strings.TrimSpace(rest), pos: c.Pos()}
					byLine[pos.Line] = e
					byLine[pos.Line+1] = e
				}
			}
		}
	}
	return out
}

// skipAt looks up a //flovsnap:skip entry covering the given position.
func skipAt(fset *token.FileSet, skips map[string]map[int]skipEntry, pos token.Pos) (skipEntry, bool) {
	position := fset.Position(pos)
	e, ok := skips[position.Filename][position.Line]
	return e, ok
}

// posKey renders a declaration position as a map key.
func posKey(fset *token.FileSet, pos token.Pos) string {
	return fset.Position(pos).String()
}

// elementTypes strips containers: the element types the type-graph walk
// descends through for a field of type t.
func elementTypes(t types.Type) []types.Type {
	switch t := t.(type) {
	case *types.Pointer:
		return elementTypes(t.Elem())
	case *types.Slice:
		return elementTypes(t.Elem())
	case *types.Array:
		return elementTypes(t.Elem())
	case *types.Chan:
		return elementTypes(t.Elem())
	case *types.Map:
		return append(elementTypes(t.Key()), elementTypes(t.Elem())...)
	default:
		return []types.Type{t}
	}
}

// moduleStruct reports whether t is a named struct type declared in the
// analyzed module, returning its origin.
func moduleStruct(p *ModulePass, t types.Type) (*types.Named, bool) {
	named, ok := t.(*types.Named)
	if !ok {
		return nil, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return nil, false
	}
	path := obj.Pkg().Path()
	if path != p.Module.Path && !strings.HasPrefix(path, p.Module.Path+"/") {
		return nil, false
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil, false
	}
	return named.Origin(), true
}
